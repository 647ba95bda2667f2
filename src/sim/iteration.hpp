// Single-iteration discrete-event simulation of the master/worker protocol.
//
// Workers start computing at t = 0. Worker w holding load(w) of the k
// partitions finishes computing at (load/k) / (throughput·speed_factor),
// then its coded result reaches the master after its injected delay plus the
// communication latency. The master processes arrivals in time order and
// stops at the first decodable prefix — exactly the T(B, S) semantics of
// Section III-C generalized to delayed (not just full) stragglers.
#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/coding_scheme.hpp"
#include "core/decoding_cache.hpp"
#include "engine/round.hpp"

namespace hgc {

/// Knobs that are properties of the platform rather than the scheme.
struct SimParams {
  /// Fixed result-transfer latency (seconds) added to every arrival.
  double comm_latency = 0.0;
  /// Observability routing — never affects results. Non-zero assigns the
  /// virtual-clock trace track the engine lays this run's rounds out on
  /// (sweep cells use cell.index + 1); 0 = no virtual trace events.
  std::uint32_t trace_track = 0;
};

/// Simulate one iteration of `scheme` on `cluster` under `conditions`: a
/// timing-only engine round over a fixed-latency link. The outcome's `time`
/// is +inf when the iteration cannot complete (e.g. naive scheme with a
/// faulted worker).
/// `decoding_cache`, when non-null, must wrap `scheme`; callers replaying
/// many iterations share it so recurring straggler patterns decode from the
/// LRU instead of re-solving (result-transparent either way).
/// `trace_time_base` is the caller's accumulated virtual clock, placing this
/// iteration on the params.trace_track timeline (observability only).
engine::RoundOutcome simulate_iteration(
    const CodingScheme& scheme, const Cluster& cluster,
    const IterationConditions& conditions, const SimParams& params = {},
    DecodingCache* decoding_cache = nullptr, double trace_time_base = 0.0);

/// The balanced-optimum iteration time (s+1)/Σw of Theorem 5 translated to
/// cluster units (datasets/second); what heter-aware achieves with exact
/// estimates and no noise.
double ideal_iteration_time(const Cluster& cluster, std::size_t s);

}  // namespace hgc
