#include "core/decoder.hpp"

#include <algorithm>

#include "core/robustness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace hgc {

std::optional<Vector> solve_decoding_coefficients(
    const CodingScheme& scheme, const std::vector<bool>& received) {
  if (!obs::metrics_enabled() && !obs::trace_enabled())
    return scheme.decoding_coefficients(received);

  HGC_TRACE_SCOPE("decode_solve", "decode");
  if (!obs::metrics_enabled()) return scheme.decoding_coefficients(received);

  static const obs::Counter solves =
      obs::Registry::global().counter("decode.solves");
  // Log-spaced upper-inclusive bounds bracketing the µs-to-ms solves the
  // coding-matrix sizes produce; anything slower lands in overflow.
  static const obs::Histogram solve_seconds =
      obs::Registry::global().histogram(
          "decode.solve_seconds",
          {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  solves.add();
  Stopwatch timer;
  auto coefficients = scheme.decoding_coefficients(received);
  solve_seconds.observe(timer.seconds());
  return coefficients;
}

std::vector<DecodingRow> build_decoding_matrix(const CodingScheme& scheme) {
  const std::size_t m = scheme.num_workers();
  const std::size_t s = scheme.stragglers_tolerated();
  std::vector<DecodingRow> rows;
  for_each_straggler_pattern(m, s, [&](const StragglerSet& pattern) {
    std::vector<bool> received(m, true);
    for (WorkerId w : pattern) received[w] = false;
    // Workers with no data never respond regardless of the pattern.
    for (std::size_t w = 0; w < m; ++w)
      if (scheme.load(w) == 0) received[w] = false;
    auto coefficients = scheme.decoding_coefficients(received);
    if (!coefficients) {
      // s = 0 enumerates one empty pattern; naming "the worker starting the
      // pattern" would print m, which is not a worker id.
      if (pattern.empty())
        throw DecodeError(
            "scheme cannot decode even with every data-holding worker "
            "present (empty straggler pattern)");
      throw DecodeError("scheme is not robust to pattern starting at worker " +
                        std::to_string(pattern.front()));
    }
    rows.push_back({pattern, std::move(*coefficients)});
    return true;
  });
  return rows;
}

DecodeSession::DecodeSession(const CodingScheme& scheme, DecodingCache* cache)
    : scheme_(scheme),
      gate_(scheme.decode_gate()),
      cache_(cache),
      min_required_(scheme.min_results_required()),
      received_(scheme.num_workers(), false) {
  HGC_REQUIRE(!cache_ || &cache_->scheme() == &scheme_,
              "decoding cache must wrap the decoder's scheme");
  reset();
}

void DecodeSession::reset() {
  std::fill(received_.begin(), received_.end(), false);
  missing_ = gate_.trigger_need;
  arrivals_ = 0;
  gate_open_ = gate_.count_need == 0 ||
               std::find(missing_.begin(), missing_.end(), 0) != missing_.end();
  coefficients_.reset();
}

bool DecodeSession::on_arrival(WorkerId w) {
  HGC_REQUIRE(w < received_.size(), "worker id out of range");
  HGC_REQUIRE(!received_[w], "duplicate result from worker");
  received_[w] = true;
  ++arrivals_;
  if (coefficients_) return false;  // already decodable, extra result unused
  if (!gate_open_) {
    // The gate's conditions are monotone: once open it stays open, and the
    // counters behind it are no longer needed this round.
    if (arrivals_ >= gate_.count_need) {
      gate_open_ = true;
    } else if (!gate_.trigger_of.empty()) {
      const std::uint32_t t = gate_.trigger_of[w];
      if (t != DecodeGate::kNoTrigger && --missing_[t] == 0) gate_open_ = true;
    }
  }
  if (!gate_open_ || arrivals_ < min_required_) return false;
  return decode();
}

bool DecodeSession::finish() {
  if (!coefficients_ && gate_open_ && arrivals_ > 0 &&
      arrivals_ < min_required_)
    decode();
  return ready();
}

bool DecodeSession::decode() {
  coefficients_ = cache_ ? cache_->decode(received_)
                         : solve_decoding_coefficients(scheme_, received_);
  return coefficients_.has_value();
}

const Vector& DecodeSession::coefficients() const {
  if (!coefficients_)
    throw DecodeError("coefficients requested before the code is decodable");
  return *coefficients_;
}

StreamingDecoder::StreamingDecoder(const CodingScheme& scheme,
                                   DecodingCache* cache)
    : session_(scheme, cache), coded_(scheme.num_workers()) {}

bool StreamingDecoder::add_result(WorkerId w, Vector coded_gradient) {
  const bool decoded = session_.on_arrival(w);
  coded_[w] = std::move(coded_gradient);
  return decoded;
}

Vector StreamingDecoder::aggregate() const {
  if (!ready())
    throw DecodeError("aggregate requested before the code is decodable");
  return combine_coded_gradients(session_.coefficients(), coded_);
}

std::vector<WorkerId> StreamingDecoder::unused_workers() const {
  const std::vector<bool>& received = session_.received();
  std::vector<WorkerId> unused;
  for (std::size_t w = 0; w < received.size(); ++w) {
    const bool used = ready() && session_.coefficients()[w] != 0.0;
    if (received[w] && !used) unused.push_back(w);
  }
  return unused;
}

void StreamingDecoder::reset() {
  session_.reset();
  for (auto& v : coded_) v.clear();
}

}  // namespace hgc
