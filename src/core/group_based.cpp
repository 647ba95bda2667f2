#include "core/group_based.hpp"

#include <algorithm>

#include "core/allocation.hpp"
#include "util/error.hpp"

namespace hgc {

struct GroupBasedScheme::Build {
  SparseRowMatrix b;
  Assignment assignment;
  std::vector<Group> groups;
  Alg1Code sub_code;
};

namespace {

GroupBasedScheme::Build make_build(const Throughputs& c, std::size_t k,
                                   std::size_t s, Rng& rng,
                                   const GroupSearchLimits& limits) {
  const auto counts = heter_aware_counts(c, k, s);
  Assignment assignment = cyclic_assignment(counts, k);
  const std::size_t m = assignment.size();

  // Alg. 2: enumerate groups in the support, then prune to disjointness.
  std::vector<Group> groups =
      prune_groups(find_all_groups(assignment, k, limits));
  const std::size_t p = groups.size();
  HGC_ASSERT(p <= s + 1,
             "disjoint groups cannot exceed the replication factor");

  std::vector<bool> in_group(m, false);
  for (const Group& g : groups)
    for (WorkerId w : g) in_group[w] = true;

  // Alg. 3: coefficient 1 for group workers on their own partitions.
  SparseRowBuilder b(m, k);
  for (const Group& g : groups)
    for (WorkerId w : g)
      for (PartitionId partition : assignment[w]) b.set(w, partition, 1.0);

  // Non-group workers form an Alg.1 sub-code with tolerance s' = s − P.
  // Their supports cover every partition exactly s+1−P times because each
  // kept group absorbs exactly one copy per partition.
  Alg1Code sub_code;
  Assignment sub_assignment(m);
  bool any_residual = false;
  for (std::size_t w = 0; w < m; ++w) {
    if (!in_group[w] && !assignment[w].empty()) {
      sub_assignment[w] = assignment[w];
      any_residual = true;
    }
  }
  if (any_residual) {
    HGC_ASSERT(p <= s, "residual workers imply P <= s");
    Alg1Build sub = build_alg1(sub_assignment, k, s - p, rng);
    for (std::size_t w = 0; w < m; ++w) {
      if (sub_assignment[w].empty()) continue;
      const auto cols = sub.b.row_cols(w);
      const auto values = sub.b.row_values(w);
      for (std::size_t i = 0; i < cols.size(); ++i)
        b.set(w, cols[i], values[i]);
    }
    sub_code = std::move(sub.code);
  }

  return {b.build(), std::move(assignment), std::move(groups),
          std::move(sub_code)};
}

}  // namespace

GroupBasedScheme::GroupBasedScheme(Build build, std::size_t s)
    : CodingScheme(std::move(build.b), std::move(build.assignment), s),
      groups_(std::move(build.groups)),
      sub_code_(std::move(build.sub_code)) {
  // One trigger per decode path of decoding_coefficients: each group fires
  // once all its workers arrived (Eq. 8), the sub-code once at most s' of
  // its workers are missing, and the arrival count once it reaches the
  // Theorem 6 bound active − s that guards the generic fallback.
  DecodeGate gate;
  gate.trigger_of.assign(num_workers(), DecodeGate::kNoTrigger);
  for (const Group& g : groups_) {
    const auto t = static_cast<std::uint32_t>(gate.trigger_need.size());
    for (WorkerId w : g) gate.trigger_of[w] = t;
    gate.trigger_need.push_back(g.size());
  }
  if (!sub_code_.empty()) {
    const auto t = static_cast<std::uint32_t>(gate.trigger_need.size());
    for (WorkerId w : sub_code_.workers()) gate.trigger_of[w] = t;
    gate.trigger_need.push_back(sub_code_.workers().size() -
                                sub_code_.stragglers_tolerated());
  }
  gate.count_need = active_workers() - stragglers_tolerated();
  set_decode_gate(std::move(gate));
}

GroupBasedScheme::GroupBasedScheme(const Throughputs& c, std::size_t k,
                                   std::size_t s, Rng& rng,
                                   const GroupSearchLimits& limits)
    : GroupBasedScheme(make_build(c, k, s, rng, limits), s) {}

std::optional<Vector> GroupBasedScheme::decoding_coefficients(
    const std::vector<bool>& received) const {
  HGC_REQUIRE(received.size() == num_workers(),
              "received flags must have one entry per worker");

  // (1) Any complete group: a = 1_G (Eq. 8).
  for (const Group& g : groups_) {
    const bool complete = std::all_of(
        g.begin(), g.end(), [&](WorkerId w) { return received[w]; });
    if (complete) {
      Vector coefficients(num_workers(), 0.0);
      for (WorkerId w : g) coefficients[w] = 1.0;
      return coefficients;
    }
  }

  // (2) The Alg.1 sub-code over the non-group workers.
  if (!sub_code_.empty()) {
    if (auto fast = sub_code_.decode(received, num_workers())) return fast;
  }

  // (3) Mixed combinations: only worth a least-squares solve once at least
  // (active − s) results arrived — the point at which Theorem 6 guarantees
  // decodability.
  if (count_received(received) >= active_workers() - stragglers_tolerated())
    return generic_decode(received);
  return std::nullopt;
}

std::size_t GroupBasedScheme::active_workers() const {
  std::size_t active = 0;
  for (const auto& partitions : assignment())
    if (!partitions.empty()) ++active;
  return active;
}

std::size_t GroupBasedScheme::min_results_required() const {
  std::size_t smallest = num_workers() - stragglers_tolerated();
  for (const Group& g : groups_)
    smallest = std::min(smallest, g.size());
  if (!sub_code_.empty()) {
    const std::size_t sub_need =
        sub_code_.workers().size() - sub_code_.stragglers_tolerated();
    smallest = std::min(smallest, sub_need);
  }
  return smallest;
}

}  // namespace hgc
