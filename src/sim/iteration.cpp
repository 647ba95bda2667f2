#include "sim/iteration.hpp"

#include "engine/link.hpp"
#include "util/error.hpp"

namespace hgc {

engine::RoundOutcome simulate_iteration(const CodingScheme& scheme,
                                        const Cluster& cluster,
                                        const IterationConditions& conditions,
                                        const SimParams& params,
                                        DecodingCache* decoding_cache,
                                        double trace_time_base) {
  HGC_REQUIRE(params.comm_latency >= 0.0, "latency must be non-negative");

  // Timing-only round on the event engine over a constant-latency link.
  engine::FixedLatencyLink link(params.comm_latency);
  engine::RoundOptions options;
  options.decoding_cache = decoding_cache;
  options.trace_track = params.trace_track;
  options.trace_time_base = trace_time_base;
  return engine::run_round(scheme, cluster, conditions, link, options);
}

double ideal_iteration_time(const Cluster& cluster, std::size_t s) {
  return static_cast<double>(s + 1) / cluster.total_throughput();
}

}  // namespace hgc
