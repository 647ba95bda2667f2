// One full coded aggregation round over the simulated network: every worker
// computes its partial gradients, encodes, serializes (real bytes, real
// checksums), transmits to the master; the master parses arrivals in time
// order and stops at the first decodable set.
#pragma once

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/coding_scheme.hpp"
#include "engine/round.hpp"
#include "net/network.hpp"

namespace hgc {

/// Run one round. `partition_gradients[j]` is g_j (dimension shared).
/// Workers are network nodes 0..m-1; the master is node m (the network must
/// have at least m+1 nodes). `iteration` tags the frames. The outcome's
/// `aggregate` is the decoded Σ g_j and `dropped` counts the messages lost
/// in flight; `time` and `results_used` mean something only when `decoded`.
engine::RoundOutcome run_coded_round(
    const CodingScheme& scheme, const Cluster& cluster,
    const IterationConditions& conditions,
    const std::vector<Vector>& partition_gradients, SimulatedNetwork& network,
    std::uint64_t iteration = 0);

}  // namespace hgc
