#include "core/robustness.hpp"

#include <algorithm>
#include <numeric>

#include "core/decoder.hpp"
#include "util/error.hpp"

namespace hgc {

bool ones_in_row_span(const Matrix& b, std::span<const std::size_t> rows,
                      double tolerance) {
  thread_local SolveWorkspace ws;
  return ones_in_row_span(b, rows, tolerance, ws);
}

bool ones_in_row_span(const Matrix& b, std::span<const std::size_t> rows,
                      double tolerance, SolveWorkspace& ws) {
  if (rows.empty()) return false;
  // Least-squares B_Rᵀ·x = 1 with a residual test, solved straight against
  // the selected rows (no select_rows/transposed temporaries).
  ws.qr.factor_transposed(RowSelectView(b, rows));
  ws.rhs.assign(b.cols(), 1.0);
  return ws.qr.solve_into(ws.rhs, ws.x) <= tolerance;
}

bool ones_in_row_span(const SparseRowMatrix& b,
                      std::span<const std::size_t> rows, double tolerance) {
  thread_local SolveWorkspace ws;
  return ones_in_row_span(b, rows, tolerance, ws);
}

bool ones_in_row_span(const SparseRowMatrix& b,
                      std::span<const std::size_t> rows, double tolerance,
                      SolveWorkspace& ws) {
  if (rows.empty()) return false;
  // Identical solve to the dense variant: the sparse scatter packs a
  // byte-identical B_Rᵀ (see QrWorkspace::factor_transposed).
  ws.qr.factor_transposed(b, rows);
  ws.rhs.assign(b.cols(), 1.0);
  return ws.qr.solve_into(ws.rhs, ws.x) <= tolerance;
}

std::size_t count_straggler_patterns(std::size_t m, std::size_t s,
                                     std::size_t cap) {
  HGC_REQUIRE(s <= m, "cannot choose more stragglers than workers");
  const std::size_t r = std::min(s, m - s);
  // Multiplicative formula with exact intermediate division; 128-bit
  // intermediates cannot overflow because n is capped each step.
  unsigned __int128 n = 1;
  for (std::size_t i = 1; i <= r; ++i) {
    n = n * (m - r + i) / i;
    if (n >= cap) return cap;
  }
  return static_cast<std::size_t>(n);
}

bool satisfies_condition1(const Matrix& b, std::size_t s, double tolerance,
                          SolveWorkspace* ws) {
  const std::size_t m = b.rows();
  HGC_REQUIRE(s < m, "condition 1 needs s < m");
  thread_local SolveWorkspace shared;
  SolveWorkspace& w = ws ? *ws : shared;
  // Equivalent formulation: for every straggler pattern of exactly s
  // workers, the surviving rows span the ones vector. One workspace serves
  // the whole C(m, s) enumeration: indices holds the survivors, indices2
  // backs the pattern buffer, and the QR factors are re-packed per pattern.
  std::vector<std::size_t>& survivors = w.indices;
  return for_each_straggler_pattern(
      m, s,
      [&](const StragglerSet& stragglers) {
        survivors.clear();
        std::size_t next = 0;
        for (std::size_t worker = 0; worker < m; ++worker) {
          if (next < stragglers.size() && stragglers[next] == worker)
            ++next;
          else
            survivors.push_back(worker);
        }
        return ones_in_row_span(b, survivors, tolerance, w);
      },
      w.indices2);
}

std::optional<double> completion_time(const CodingScheme& scheme,
                                      const Throughputs& c,
                                      const StragglerSet& stragglers,
                                      DecodingCache* cache) {
  const std::size_t m = scheme.num_workers();
  HGC_REQUIRE(c.size() == m, "one throughput per worker");
  std::vector<bool> is_straggler(m, false);
  for (WorkerId w : stragglers) {
    HGC_REQUIRE(w < m, "straggler id out of range");
    is_straggler[w] = true;
  }

  // Finish times of surviving workers that actually hold data; the paper's
  // full-straggler assumption means stragglers never arrive.
  std::vector<std::pair<double, WorkerId>> arrivals;
  for (std::size_t w = 0; w < m; ++w) {
    if (is_straggler[w] || scheme.load(w) == 0) continue;
    HGC_REQUIRE(c[w] > 0.0, "non-straggler throughput must be positive");
    arrivals.emplace_back(static_cast<double>(scheme.load(w)) / c[w], w);
  }
  std::sort(arrivals.begin(), arrivals.end());

  DecodeSession session(scheme, cache);
  for (const auto& [time, w] : arrivals)
    if (session.on_arrival(w)) return time;
  // Tail case: min_results_required can exceed the survivor count, so the
  // session tries the full received set once more when nothing else did.
  if (session.finish()) return arrivals.back().first;
  return std::nullopt;
}

std::optional<double> worst_case_time(const CodingScheme& scheme,
                                      const Throughputs& c,
                                      DecodingCache* cache) {
  const std::size_t s = scheme.stragglers_tolerated();
  double worst = 0.0;
  // Patterns with fewer than s stragglers are dominated by some s-pattern
  // (removing a straggler can only speed decoding up), so exact-s suffices;
  // we still include the zero-straggler case to cover s = 0 schemes.
  const auto none = completion_time(scheme, c, {}, cache);
  if (!none) return std::nullopt;
  worst = *none;

  const bool ok = for_each_straggler_pattern(
      scheme.num_workers(), s, [&](const StragglerSet& pattern) {
        const auto t = completion_time(scheme, c, pattern, cache);
        if (!t) return false;
        worst = std::max(worst, *t);
        return true;
      });
  if (!ok) return std::nullopt;
  return worst;
}

RobustnessEstimate estimate_worst_case_time(const CodingScheme& scheme,
                                            const Throughputs& c,
                                            std::size_t max_patterns,
                                            std::uint64_t seed,
                                            DecodingCache* cache) {
  const std::size_t m = scheme.num_workers();
  const std::size_t s = scheme.stragglers_tolerated();
  RobustnessEstimate estimate;
  estimate.exhaustive =
      count_straggler_patterns(m, s, max_patterns + 1) <= max_patterns;

  const auto check = [&](const StragglerSet& pattern) {
    ++estimate.patterns_checked;
    const auto t = completion_time(scheme, c, pattern, cache);
    if (t)
      estimate.worst_time = std::max(estimate.worst_time, *t);
    else
      ++estimate.undecodable;
    return true;  // never early-exit: we are estimating, not certifying
  };
  check({});  // zero-straggler baseline, covering s = 0 schemes
  sample_straggler_patterns(m, s, max_patterns, seed, check);
  return estimate;
}

double optimal_time_bound(const Throughputs& c, std::size_t k, std::size_t s) {
  // lint:allow(raw-fp-accumulation): fixed begin->end order over per-cluster throughputs; analytic bound, not decode
  const double total = std::accumulate(c.begin(), c.end(), 0.0);
  HGC_REQUIRE(total > 0.0, "total throughput must be positive");
  return static_cast<double>((s + 1) * k) / total;
}

}  // namespace hgc
