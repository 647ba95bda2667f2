#include "sim/layerwise.hpp"

#include <algorithm>
#include <cmath>

#include "core/decoder.hpp"
#include "util/error.hpp"

namespace hgc {

std::vector<double> equal_layers(std::size_t count) {
  HGC_REQUIRE(count > 0, "need at least one layer");
  return std::vector<double>(count, 1.0 / static_cast<double>(count));
}

LayerwiseResult simulate_layerwise_iteration(const CodingScheme& scheme,
                                             const Cluster& cluster,
                                             const IterationConditions& cond,
                                             const LayerwiseParams& params) {
  const std::size_t m = scheme.num_workers();
  HGC_REQUIRE(cluster.size() == m, "cluster size must match scheme workers");
  HGC_REQUIRE(cond.size() == m, "conditions size must match workers");
  HGC_REQUIRE(params.per_message_latency >= 0.0 &&
                  params.full_transfer_time >= 0.0,
              "communication costs must be non-negative");

  std::vector<double> fractions =
      params.layer_fractions.empty() ? std::vector<double>{1.0}
                                     : params.layer_fractions;
  double total_fraction = 0.0;
  for (double f : fractions) {
    HGC_REQUIRE(f > 0.0, "layer fractions must be positive");
    total_fraction += f;
  }
  HGC_REQUIRE(std::abs(total_fraction - 1.0) < 1e-6,
              "layer fractions must sum to 1");
  const std::size_t num_layers = fractions.size();

  // Per-worker total compute time (as in the monolithic simulator).
  const std::size_t k = scheme.num_partitions();
  std::vector<double> total_compute(m, 0.0);
  std::vector<bool> active(m, false);
  for (WorkerId w = 0; w < m; ++w) {
    if (cond.faulted[w] || scheme.load(w) == 0) continue;
    const double rate =
        cluster.worker(w).throughput * cond.speed_factor[w];
    const double share =
        static_cast<double>(scheme.load(w)) / static_cast<double>(k);
    total_compute[w] = share / rate;
    active[w] = true;
  }

  LayerwiseResult result;
  result.layer_times.assign(num_layers, 0.0);

  DecodeSession session(scheme);
  double cumulative = 0.0;
  for (std::size_t layer = 0; layer < num_layers; ++layer) {
    cumulative += fractions[layer];
    // Layer arrival per worker: injected delay stalls the start of compute;
    // transfer overlaps the next layer's compute (dedicated send thread).
    std::vector<std::pair<double, WorkerId>> arrivals;
    for (WorkerId w = 0; w < m; ++w) {
      if (!active[w]) continue;
      const double compute_done = cond.delay[w] + cumulative * total_compute[w];
      arrivals.emplace_back(compute_done + params.per_message_latency +
                                fractions[layer] * params.full_transfer_time,
                            w);
    }
    std::sort(arrivals.begin(), arrivals.end());

    session.reset();
    for (const auto& [at, w] : arrivals) {
      if (session.on_arrival(w)) {
        result.layer_times[layer] = at;
        break;
      }
    }
    if (!session.ready()) return result;  // decoded stays false
  }

  result.decoded = true;
  result.time = *std::max_element(result.layer_times.begin(),
                                  result.layer_times.end());
  return result;
}

}  // namespace hgc
