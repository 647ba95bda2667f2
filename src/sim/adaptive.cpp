#include "sim/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace hgc {

double AdaptiveResult::window_mean(std::size_t begin, std::size_t end) const {
  HGC_REQUIRE(begin <= end && end <= iteration_times.size(),
              "window out of range");
  RunningStats stats;
  for (std::size_t i = begin; i < end; ++i)
    if (std::isfinite(iteration_times[i])) stats.add(iteration_times[i]);
  return stats.mean();
}

AdaptiveResult run_adaptive(const Cluster& cluster,
                            const AdaptiveConfig& config) {
  const std::size_t m = cluster.size();
  HGC_REQUIRE(config.iterations > 0, "need at least one iteration");
  const std::size_t k = config.k == 0 ? 2 * m : config.k;

  Rng construction_rng(config.seed);
  Rng condition_rng(config.seed + 0x79b9);

  // The master's belief about worker speeds; cold start = uniform.
  Throughputs initial = config.initial_estimates;
  if (initial.empty()) initial.assign(m, 1.0);
  HGC_REQUIRE(initial.size() == m, "initial estimates size mismatch");
  ThroughputEstimator estimator(initial, config.ewma_smoothing);

  Throughputs scheme_basis = estimator.estimates();
  auto scheme =
      make_scheme(config.kind, scheme_basis, k, config.s, construction_rng);

  AdaptiveResult result;
  result.iteration_times.reserve(config.iterations);

  for (std::size_t iter = 1; iter <= config.iterations; ++iter) {
    IterationConditions conditions = config.model.draw(m, condition_rng);
    // Apply the permanent drift on top of the transient fluctuation.
    if (config.drift.at_iteration > 0 && iter >= config.drift.at_iteration) {
      HGC_REQUIRE(config.drift.worker < m, "drift worker out of range");
      conditions.speed_factor[config.drift.worker] *= config.drift.factor;
    }

    const engine::RoundOutcome sim_result =
        simulate_iteration(*scheme, cluster, conditions, config.sim);
    if (!sim_result.decoded) {
      ++result.failures;
      result.iteration_times.push_back(
          std::numeric_limits<double>::infinity());
    } else {
      result.iteration_times.push_back(sim_result.time);
      result.overall.add(sim_result.time);
    }

    // Telemetry: observed compute durations update the estimator (workers
    // report their own compute time with the result / heartbeat).
    for (WorkerId w = 0; w < m; ++w) {
      const double seconds = sim_result.compute_times[w];
      if (!std::isfinite(seconds)) continue;
      const double fraction = static_cast<double>(scheme->load(w)) /
                              static_cast<double>(scheme->num_partitions());
      estimator.observe(w, fraction, seconds);
    }

    // Periodic re-code when the belief drifted enough.
    if (config.recode_every > 0 && iter % config.recode_every == 0) {
      if (estimator.relative_deviation(scheme_basis) >
          config.recode_threshold) {
        scheme_basis = estimator.estimates();
        scheme = make_scheme(config.kind, scheme_basis, k, config.s,
                             construction_rng);
        ++result.recodes;
      }
    }
  }

  result.final_estimates = estimator.estimates();
  return result;
}

}  // namespace hgc
