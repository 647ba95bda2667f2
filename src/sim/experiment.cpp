#include "sim/experiment.hpp"

#include <cmath>

#include "util/error.hpp"

namespace hgc {

std::size_t resolve_partitions(const ExperimentConfig& config,
                               std::size_t num_workers) {
  return config.k == 0 ? 2 * num_workers : config.k;
}

std::size_t exact_partition_count(const Cluster& cluster, std::size_t s,
                                  std::size_t max_k) {
  const Throughputs c = cluster.throughputs();
  const double total = cluster.total_throughput();
  for (std::size_t k = cluster.size(); k <= max_k; ++k) {
    bool integral = true;
    for (double ci : c) {
      const double share =
          static_cast<double>(k * (s + 1)) * ci / total;
      if (std::abs(share - std::round(share)) > 1e-9 ||
          share > static_cast<double>(k) + 1e-9) {
        integral = false;
        break;
      }
    }
    if (integral) return k;
  }
  return 2 * cluster.size();
}

SchemeSummary run_experiment(SchemeKind kind, const Cluster& cluster,
                             const ExperimentConfig& config,
                             std::vector<IterationConditions>* conditions_log) {
  HGC_REQUIRE(config.iterations > 0, "need at least one iteration");
  const std::size_t m = cluster.size();
  const std::size_t k = resolve_partitions(config, m);

  // Three independent, seed-derived streams so that (a) per-iteration
  // conditions are identical across schemes, (b) construction randomness and
  // estimation noise do not perturb the condition stream.
  Rng estimation_rng(config.seed + 0x9e37);
  Rng condition_rng(config.seed + 0x79b9);

  const Throughputs truth = cluster.throughputs();
  const Throughputs estimated =
      estimate_throughputs(truth, config.estimation_sigma, estimation_rng);
  // Construction is a deterministic function of (kind, estimated, k, s,
  // seed), which is what makes the shared cache result-transparent; the
  // uncached path below is what the cache replays on a miss.
  std::shared_ptr<const CodingScheme> scheme;
  if (config.scheme_cache) {
    scheme = config.scheme_cache->get_or_create(kind, estimated, k, config.s,
                                                config.seed);
  } else {
    Rng construction_rng(config.seed);
    scheme = make_scheme(kind, estimated, k, config.s, construction_rng);
  }

  std::optional<DecodingCache> decoding_cache;
  if (config.decoding_cache_capacity > 0)
    decoding_cache.emplace(*scheme, config.decoding_cache_capacity);

  SchemeSummary summary;
  summary.scheme = scheme->name();
  summary.iterations = config.iterations;
  // Accumulated virtual time, only for laying iterations out end-to-end on
  // the trace's virtual-clock track; results never read it.
  double trace_clock = 0.0;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    const IterationConditions conditions = config.model.draw(m, condition_rng);
    if (conditions_log) conditions_log->push_back(conditions);
    const engine::RoundOutcome result =
        simulate_iteration(*scheme, cluster, conditions, config.sim,
                           decoding_cache ? &*decoding_cache : nullptr,
                           trace_clock);
    if (!result.decoded) {
      ++summary.failures;
      // Advance the trace clock past the failed round anyway so its
      // undecodable marker does not pile onto the next iteration's span.
      trace_clock += ideal_iteration_time(cluster, config.s);
      continue;
    }
    trace_clock += result.time;
    summary.iteration_time.add(result.time);
    summary.resource_usage.add(result.resource_usage);
  }
  if (decoding_cache) {
    summary.decode_hits = decoding_cache->hits();
    summary.decode_misses = decoding_cache->misses();
  }
  return summary;
}

std::vector<SchemeSummary> compare_schemes(
    const std::vector<SchemeKind>& kinds, const Cluster& cluster,
    const ExperimentConfig& config) {
  std::vector<SchemeSummary> summaries;
  summaries.reserve(kinds.size());
  // run_experiment reseeds its streams from config.seed, so every scheme
  // replays the same straggler victims and fluctuations.
  for (SchemeKind kind : kinds)
    summaries.push_back(run_experiment(kind, cluster, config));
  return summaries;
}

}  // namespace hgc
