#include "net/coded_round.hpp"

#include "engine/link.hpp"
#include "util/error.hpp"

namespace hgc {

engine::RoundOutcome run_coded_round(
    const CodingScheme& scheme, const Cluster& cluster,
    const IterationConditions& conditions,
    const std::vector<Vector>& partition_gradients, SimulatedNetwork& network,
    std::uint64_t iteration) {
  HGC_REQUIRE(network.nodes() >= scheme.num_workers() + 1,
              "network needs one node per worker plus the master");

  // Full-payload round on the event engine: serialize → transmit over the
  // lossy link → parse in arrival order → streaming decode.
  engine::NetworkLink link(network);
  engine::RoundOptions options;
  options.partition_gradients = &partition_gradients;
  options.wire_frames = true;
  options.iteration = iteration;
  return engine::run_round(scheme, cluster, conditions, link, options);
}

}  // namespace hgc
