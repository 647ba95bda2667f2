// Offline decoding-matrix construction (Eq. 2) and a streaming decoder.
//
// The paper stores the decoding matrix A ∈ R^{S×m} (one row per straggler
// pattern, S = C(m, s)) for "regular" patterns and solves irregular ones in
// real time. DecodeSession is that real-time path: feed arrivals, and it
// decodes at the first sufficient one while doing O(1) work per arrival
// before then. StreamingDecoder wraps a session with the coded payloads for
// the engine's master and the threaded runtime.
#pragma once

#include <optional>
#include <vector>

#include "core/coding_scheme.hpp"
#include "core/decoding_cache.hpp"
#include "core/types.hpp"

namespace hgc {

/// One row of the decoding matrix: the straggler pattern it serves and the
/// worker coefficients that recover the gradient under that pattern.
struct DecodingRow {
  StragglerSet stragglers;
  Vector coefficients;  // a_i with supp ⊆ survivors, a·B = 1
};

/// Materialize the full decoding matrix of Eq. 2: one row per pattern of
/// exactly s stragglers. Exponential in m; meant for small m (tests, the
/// paper's "partially stored" table for regular patterns).
std::vector<DecodingRow> build_decoding_matrix(const CodingScheme& scheme);

/// scheme.decoding_coefficients(received) wrapped in the observability
/// layer: counts `decode.solves`, samples `decode.solve_seconds`, and opens
/// a wall-clock "decode_solve" trace span. The single real-time-solve entry
/// point for both the uncached decoder path and a DecodingCache miss —
/// result-identical to calling the scheme directly (everything recorded is
/// out of band).
std::optional<Vector> solve_decoding_coefficients(
    const CodingScheme& scheme, const std::vector<bool>& received);

/// One round of arrival-driven decoding: the single path every arrival loop
/// (the engine's master, the robustness enumeration, the layer-wise
/// simulator) feeds its arrivals through. Each arrival updates the scheme's
/// DecodeGate counters in O(1); the canonical decode (or the DecodingCache
/// wrapping it) runs only once the gate holds and min_results_required
/// results arrived. Skipped arrivals are exactly those at which the
/// canonical decode would have returned nullopt, so the first decodable
/// arrival and its coefficients are the canonical ones, bit for bit.
class DecodeSession {
 public:
  /// `cache`, when non-null, must wrap the same scheme instance. It may be
  /// shared across rounds but not across threads.
  explicit DecodeSession(const CodingScheme& scheme,
                         DecodingCache* cache = nullptr);

  /// Record worker w's arrival. Returns true if the received set became
  /// decodable with it; arrivals after that are recorded but never decoded.
  bool on_arrival(WorkerId w);

  /// No further arrivals will come this round. When min_results_required
  /// held back a decode the gate allowed (it can exceed the survivor
  /// count), try the full received set once. Returns ready().
  bool finish();

  bool ready() const { return coefficients_.has_value(); }
  std::size_t arrivals() const { return arrivals_; }
  const std::vector<bool>& received() const { return received_; }

  /// Coefficients of the decode. Throws DecodeError if !ready().
  const Vector& coefficients() const;

  /// Start the next round against the same scheme (and cache).
  void reset();

 private:
  bool decode();

  const CodingScheme& scheme_;
  const DecodeGate& gate_;
  DecodingCache* cache_;
  std::size_t min_required_;
  std::vector<bool> received_;
  std::vector<std::size_t> missing_;  // per trigger: arrivals still needed
  std::size_t arrivals_ = 0;
  bool gate_open_ = false;
  std::optional<Vector> coefficients_;
};

/// Master-side decoder: a DecodeSession that also keeps the coded results,
/// so the decoded aggregate can be formed once the session is ready.
class StreamingDecoder {
 public:
  /// `cache`, when non-null, must wrap the same scheme instance; decodes
  /// then go through its LRU (the paper's "regular stragglers"
  /// optimization). The cache may be shared across iterations but not
  /// across threads.
  explicit StreamingDecoder(const CodingScheme& scheme,
                            DecodingCache* cache = nullptr);

  /// Record worker w's coded gradient. Returns true if the aggregate became
  /// decodable with this arrival.
  bool add_result(WorkerId w, Vector coded_gradient);

  bool ready() const { return session_.ready(); }
  std::size_t results_received() const { return session_.arrivals(); }

  /// The decoded aggregate Σ g_j. Throws DecodeError if !ready().
  Vector aggregate() const;

  /// Coefficients used for the decode (for inspection/tests).
  const Vector& coefficients() const { return session_.coefficients(); }

  /// Workers whose results ended up unused (coefficient 0 despite arriving);
  /// feeds the resource-usage metric of Fig. 5.
  std::vector<WorkerId> unused_workers() const;

  /// Reset for the next iteration, keeping the scheme.
  void reset();

 private:
  DecodeSession session_;
  std::vector<Vector> coded_;
};

}  // namespace hgc
