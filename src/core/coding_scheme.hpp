// Abstract interface of a gradient coding strategy (Section III-B).
//
// A scheme owns the coding matrix B ∈ R^{m×k}: row i holds worker i's linear
// encoding coefficients, its support is worker i's data assignment. The only
// runtime question the master ever asks is: "given which workers have
// responded so far, can I reconstruct Σ g_j — and with what coefficients?"
// decoding_coefficients() answers it; everything else is bookkeeping.
//
// B is ≤(s+1)-sparse per row for every paper scheme, so the PRIMARY
// representation is a SparseRowMatrix: construction, encode, decode packing
// and the load/assignment accessors all run off nonzero structure — O(m·s)
// instead of the dense O(m·k) that walls out 10k-worker clusters. A dense
// view still exists for the small-m solve paths and external consumers, but
// it materializes lazily on first request and never on the scale path.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/types.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/workspace.hpp"

namespace hgc {

/// Necessary conditions for decoding_coefficients to succeed, precomputed
/// once per scheme so a DecodeSession can test them in O(1) per arrival
/// instead of re-polling the O(m) canonical decode. The canonical decode can
/// only succeed once at least `count_need` results arrived in total, or once
/// some trigger's members delivered `trigger_need` of its results. Both
/// conditions are monotone in the received set, so a session that has seen
/// one hold may keep polling without re-checking it.
///
/// The default gate (no triggers, count_need = 0) never holds a decode back;
/// min_results_required stays the only skip rule for such schemes.
struct DecodeGate {
  static constexpr std::uint32_t kNoTrigger =
      std::numeric_limits<std::uint32_t>::max();
  /// Per worker: the trigger its arrival counts toward, or kNoTrigger.
  /// Empty when the scheme has no triggers.
  std::vector<std::uint32_t> trigger_of;
  /// Per trigger: member arrivals after which the decode may succeed.
  std::vector<std::size_t> trigger_need;
  /// Total arrivals after which the decode may succeed regardless.
  std::size_t count_need = 0;
};

/// Base class for all gradient coding strategies.
class CodingScheme {
 public:
  virtual ~CodingScheme() = default;

  CodingScheme(const CodingScheme&) = delete;
  CodingScheme& operator=(const CodingScheme&) = delete;

  /// Human-readable scheme name ("heter-aware", "cyclic", ...).
  virtual std::string name() const = 0;

  std::size_t num_workers() const { return coding_matrix_.rows(); }
  std::size_t num_partitions() const { return coding_matrix_.cols(); }

  /// Number of stragglers this instance is provisioned to tolerate.
  std::size_t stragglers_tolerated() const { return s_; }

  /// The coding matrix B in its native sparse form — the representation
  /// every hot path should consume.
  const SparseRowMatrix& sparse_matrix() const { return coding_matrix_; }

  /// Dense view of B, materialized lazily on first call (thread-safe) and
  /// cached. At 10k workers this is gigabytes — keep it off scale paths;
  /// it exists for small-m solve/debug consumers only.
  const Matrix& coding_matrix() const;

  /// Data-partition assignment (supp(b_i) per worker).
  const Assignment& assignment() const { return assignment_; }

  /// Number of partitions worker w computes per iteration (||b_w||_0) —
  /// read straight off the sparse row structure.
  std::size_t load(WorkerId w) const { return coding_matrix_.row_nnz(w); }

  /// Decoding coefficients a with supp(a) ⊆ received and a·B = 1_{1×k}, or
  /// nullopt when the received set cannot reconstruct the gradient yet.
  /// `received[w]` is true when worker w's coded result has arrived.
  virtual std::optional<Vector> decoding_coefficients(
      const std::vector<bool>& received) const = 0;

  /// Cheap lower bound on how many results must have arrived before
  /// decoding_coefficients can possibly succeed; the master uses it to skip
  /// pointless solves while results trickle in.
  virtual std::size_t min_results_required() const {
    return num_workers() - s_;
  }

  /// The arrival conditions gating decoding_coefficients; see DecodeGate.
  const DecodeGate& decode_gate() const { return decode_gate_; }

 protected:
  /// Derived constructors hand over the finished matrix and assignment;
  /// the support of B must equal the assignment exactly (checked in
  /// O(nnz)).
  CodingScheme(SparseRowMatrix b, Assignment assignment, std::size_t s);

  /// Same, but the assignment IS the row structure: derived directly from
  /// the sparse rows in O(nnz), no scan, no redundant validation.
  CodingScheme(SparseRowMatrix b, std::size_t s);

  /// Dense convenience for constructors/tests that still build a Matrix;
  /// converts via SparseRowMatrix::from_dense (support = entries != 0.0).
  CodingScheme(const Matrix& b, Assignment assignment, std::size_t s);

  /// Generic decodability fallback: least-squares solve of B_Rᵀ·x = 1 with a
  /// residual test. Works for any B; O(k·|R|²). Scratch (the row selection,
  /// the packed B_Rᵀ, QR factors, rhs) lives in a per-thread workspace, so
  /// repeated calls allocate nothing but the returned coefficient vector.
  std::optional<Vector> generic_decode(const std::vector<bool>& received)
      const;

  /// Same, against a caller-owned workspace (e.g. one reused across a whole
  /// robustness enumeration). Never share a workspace between threads.
  std::optional<Vector> generic_decode(const std::vector<bool>& received,
                                       SolveWorkspace& ws) const;

  /// Derived constructors whose decode has structural preconditions install
  /// them here; every condition must be necessary for decoding_coefficients
  /// to return a value, or sessions would miss decodable arrivals.
  void set_decode_gate(DecodeGate gate);

 private:
  SparseRowMatrix coding_matrix_;
  Assignment assignment_;
  std::size_t s_;
  DecodeGate decode_gate_;
  // Lazily materialized dense view; guarded so concurrent sweep threads
  // sharing one scheme race-free. Logically const — a pure function of
  // coding_matrix_.
  mutable Matrix dense_view_;
  mutable std::once_flag dense_view_once_;
};

/// Worker-side encoding: g̃_w = Σ_j B(w,j)·g_j over the partitions worker w
/// holds. `partition_gradients[j]` is g_j; only the supported entries are
/// touched, so callers may leave other slots empty.
Vector encode_gradient(const CodingScheme& scheme, WorkerId worker,
                       const std::vector<Vector>& partition_gradients);

/// Master-side reconstruction: Σ_w a_w·g̃_w. `coded[w]` may be empty when
/// a_w == 0 (worker never responded).
Vector combine_coded_gradients(std::span<const double> coefficients,
                               const std::vector<Vector>& coded);

}  // namespace hgc
