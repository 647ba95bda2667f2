// Tests for Algorithm 2: FindAllGroups (exact covers) and PruneGroups.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/allocation.hpp"
#include "core/groups.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

TEST(FindAllGroups, PaperExample1Groups) {
  // Example 1 allocation: W0:{0} W1:{1,2} W2:{3,4,5} W3:{0,1,2,6}
  // W4:{3,4,5,6}. Exact covers: {W0,W1,W4} and {W2,W3}.
  const auto assignment =
      cyclic_assignment(std::vector<std::size_t>{1, 2, 3, 4, 4}, 7);
  const auto groups = find_all_groups(assignment, 7);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (Group{0, 1, 4}));
  EXPECT_EQ(groups[1], (Group{2, 3}));
  EXPECT_TRUE(is_exact_cover(assignment, 7, groups[0]));
  EXPECT_TRUE(is_exact_cover(assignment, 7, groups[1]));
}

TEST(FindAllGroups, SingleWorkerHoldingEverything) {
  const Assignment assignment = {{0, 1, 2}, {0}, {1, 2}};
  const auto groups = find_all_groups(assignment, 3);
  // {W0} alone and {W1, W2} are both exact covers.
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (Group{0}));
  EXPECT_EQ(groups[1], (Group{1, 2}));
}

TEST(FindAllGroups, NoGroupsWhenNothingTiles) {
  // Overlapping supports that can never partition D exactly.
  const Assignment assignment = {{0, 1}, {1, 2}, {0, 2}};
  EXPECT_TRUE(find_all_groups(assignment, 3).empty());
}

TEST(FindAllGroups, IgnoresEmptyWorkers) {
  const Assignment assignment = {{}, {0}, {1}, {}};
  const auto groups = find_all_groups(assignment, 2);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (Group{1, 2}));
}

TEST(FindAllGroups, EnumeratesEachCoverOnce) {
  // Two disjoint tilings sharing no structure: {0},{1} and {0,1}.
  const Assignment assignment = {{0}, {1}, {0, 1}};
  const auto groups = find_all_groups(assignment, 2);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (Group{0, 1}));
  EXPECT_EQ(groups[1], (Group{2}));
}

TEST(FindAllGroups, RespectsSolutionCap) {
  // Every pair {i, i+5} tiles; many covers exist. Cap at 3.
  Assignment assignment;
  for (int i = 0; i < 5; ++i) assignment.push_back({0});
  for (int i = 0; i < 5; ++i) assignment.push_back({1});
  GroupSearchLimits limits;
  limits.max_groups = 3;
  const auto groups = find_all_groups(assignment, 2, limits);
  EXPECT_EQ(groups.size(), 3u);
}

TEST(FindAllGroups, WorksBeyond64Partitions) {
  // 130 partitions (>2 words in the bitmask): two complementary halves.
  const std::size_t k = 130;
  Assignment assignment(2);
  for (std::size_t p = 0; p < k; ++p)
    assignment[p % 2].push_back(p);
  const auto groups = find_all_groups(assignment, k);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (Group{0, 1}));
}

TEST(PruneGroups, AlreadyDisjointUntouched) {
  std::vector<Group> groups = {{0, 1}, {2, 3}};
  const auto pruned = prune_groups(groups);
  EXPECT_EQ(pruned, groups);
  EXPECT_TRUE(are_disjoint(pruned));
}

TEST(PruneGroups, RemovesMostConflictingGroup) {
  // Group {0,1,2} intersects both {0,3} and {1,4}; they don't intersect
  // each other, so pruning drops the big one.
  const std::vector<Group> groups = {{0, 1, 2}, {0, 3}, {1, 4}};
  const auto pruned = prune_groups(groups);
  ASSERT_EQ(pruned.size(), 2u);
  EXPECT_TRUE(are_disjoint(pruned));
  EXPECT_EQ(pruned[0], (Group{0, 3}));
  EXPECT_EQ(pruned[1], (Group{1, 4}));
}

TEST(PruneGroups, ChainConflictKeepsMaximalSet) {
  // a-{0,1}, b-{1,2}, c-{2,3}: b conflicts with both; pruning b leaves two
  // disjoint groups.
  const std::vector<Group> groups = {{0, 1}, {1, 2}, {2, 3}};
  const auto pruned = prune_groups(groups);
  ASSERT_EQ(pruned.size(), 2u);
  EXPECT_TRUE(are_disjoint(pruned));
}

TEST(PruneGroups, EmptyInput) {
  EXPECT_TRUE(prune_groups({}).empty());
}

TEST(AreDisjoint, DetectsSharedWorker) {
  EXPECT_FALSE(are_disjoint({{0, 1}, {1, 2}}));
  EXPECT_TRUE(are_disjoint({{0, 1}, {2, 3}}));
  EXPECT_TRUE(are_disjoint({}));
}

TEST(IsExactCover, RejectsOverAndUnderCoverage) {
  const Assignment assignment = {{0, 1}, {1}, {}};
  EXPECT_FALSE(is_exact_cover(assignment, 2, Group{0, 1}));  // 1 twice
  EXPECT_FALSE(is_exact_cover(assignment, 2, Group{1}));     // 0 missing
  EXPECT_TRUE(is_exact_cover(assignment, 2, Group{0}));
}

TEST(IsExactCover, RejectsOutOfRangeIds) {
  const Assignment assignment = {{0}};
  EXPECT_FALSE(is_exact_cover(assignment, 1, Group{5}));
}

// ---- Reference implementations -------------------------------------------
// The straightforward forms of Alg. 2: a k-bit mask per worker with whole-mask
// subset tests and a full rescan for the lowest uncovered partition, and a
// prune that recomputes every pairwise conflict after each removal. The
// library's incremental versions must return exactly the same groups.

class ReferenceMask {
 public:
  explicit ReferenceMask(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}
  void set(std::size_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
  bool is_subset_of(const ReferenceMask& other) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      if (words_[w] & ~other.words_[w]) return false;
    return true;
  }
  void add(const ReferenceMask& other) {
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] |= other.words_[w];
  }
  void remove(const ReferenceMask& other) {
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] &= ~other.words_[w];
  }
  std::size_t lowest() const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      if (words_[w])
        return w * 64 + static_cast<std::size_t>(std::countr_zero(words_[w]));
    return bits_;
  }

 private:
  std::size_t bits_;
  std::vector<std::uint64_t> words_;
};

struct ReferenceSearch {
  const std::vector<ReferenceMask>& masks;
  const std::vector<std::vector<WorkerId>>& holders;
  const GroupSearchLimits& limits;
  std::vector<Group>& out;
  std::size_t nodes = 0;

  bool exhausted() const {
    return out.size() >= limits.max_groups || nodes >= limits.max_nodes;
  }

  void dfs(ReferenceMask& remaining, Group& chosen) {
    if (exhausted()) return;
    ++nodes;
    const std::size_t lowest = remaining.lowest();
    if (lowest == holders.size()) {
      out.push_back(chosen);
      return;
    }
    for (WorkerId w : holders[lowest]) {
      if (!masks[w].is_subset_of(remaining)) continue;
      chosen.push_back(w);
      remaining.remove(masks[w]);
      dfs(remaining, chosen);
      remaining.add(masks[w]);
      chosen.pop_back();
      if (exhausted()) return;
    }
  }
};

std::vector<Group> reference_find_all_groups(const Assignment& assignment,
                                             std::size_t k,
                                             const GroupSearchLimits& limits) {
  std::vector<ReferenceMask> masks(assignment.size(), ReferenceMask(k));
  std::vector<std::vector<WorkerId>> holders(k);
  for (std::size_t w = 0; w < assignment.size(); ++w)
    for (PartitionId p : assignment[w]) {
      masks[w].set(p);
      holders[p].push_back(w);
    }
  std::vector<Group> groups;
  ReferenceMask remaining(k);
  for (std::size_t p = 0; p < k; ++p) remaining.set(p);
  Group chosen;
  ReferenceSearch search{masks, holders, limits, groups};
  search.dfs(remaining, chosen);
  for (Group& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end());
  return groups;
}

bool reference_intersects(const Group& a, const Group& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j])
      ++i;
    else
      ++j;
  }
  return false;
}

std::vector<Group> reference_prune_groups(std::vector<Group> groups) {
  while (true) {
    const std::size_t n = groups.size();
    std::vector<std::size_t> conflicts(n, 0);
    bool any = false;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (reference_intersects(groups[i], groups[j])) {
          ++conflicts[i];
          ++conflicts[j];
          any = true;
        }
    if (!any) break;
    std::size_t victim = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (conflicts[i] > conflicts[victim] ||
          (conflicts[i] == conflicts[victim] &&
           groups[i].size() >= groups[victim].size()))
        victim = i;
    groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  return groups;
}

// Random supports with planted covers: a few random partitions of [0, k)
// into chunks, plus noise workers, shuffled; some lists unsorted, a few with
// a repeated partition id.
Assignment random_support(Rng& rng, std::size_t k) {
  Assignment assignment;
  const auto tilings = rng.uniform_int(1, 4);
  for (std::int64_t t = 0; t < tilings; ++t) {
    std::vector<PartitionId> order(k);
    for (std::size_t p = 0; p < k; ++p) order[p] = p;
    rng.shuffle(std::span<PartitionId>(order));
    std::size_t at = 0;
    while (at < k) {
      const auto len = std::min<std::size_t>(
          k - at, static_cast<std::size_t>(rng.uniform_int(1, 4)));
      assignment.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(at),
                              order.begin() +
                                  static_cast<std::ptrdiff_t>(at + len));
      at += len;
    }
  }
  const auto noise = rng.uniform_int(0, static_cast<std::int64_t>(k));
  for (std::int64_t t = 0; t < noise; ++t) {
    std::vector<PartitionId> parts;
    const auto len = rng.uniform_int(0, 3);
    for (std::int64_t i = 0; i < len; ++i)
      parts.push_back(static_cast<PartitionId>(
          rng.uniform_int(0, static_cast<std::int64_t>(k) - 1)));
    assignment.push_back(std::move(parts));
  }
  rng.shuffle(std::span<std::vector<PartitionId>>(assignment));
  return assignment;
}

GroupSearchLimits random_limits(Rng& rng) {
  GroupSearchLimits limits;
  switch (rng.uniform_int(0, 2)) {
    case 0:
      limits.max_nodes = static_cast<std::size_t>(rng.uniform_int(1, 60));
      break;
    case 1:
      limits.max_groups = static_cast<std::size_t>(rng.uniform_int(1, 6));
      break;
    default:
      break;  // library defaults
  }
  return limits;
}

TEST(FindAllGroups, MatchesReferenceOnAllocatorSupports) {
  Rng rng(4141);
  std::size_t truncated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(2, 40));
    const auto s = std::min<std::size_t>(
        m - 1, static_cast<std::size_t>(rng.uniform_int(1, 3)));
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(1, 3 * static_cast<std::int64_t>(m)));
    Throughputs c(m);
    for (double& x : c)
      x = trial % 3 == 0 ? static_cast<double>(rng.uniform_int(1, 3))
                         : rng.uniform(1.0, 8.0);
    const auto assignment = cyclic_assignment(heter_aware_counts(c, k, s), k);
    const GroupSearchLimits limits = random_limits(rng);
    const auto expected = reference_find_all_groups(assignment, k, limits);
    EXPECT_EQ(find_all_groups(assignment, k, limits), expected)
        << "trial=" << trial << " m=" << m << " s=" << s << " k=" << k;
    if (expected.size() >= limits.max_groups) ++truncated;
    EXPECT_EQ(prune_groups(expected), reference_prune_groups(expected))
        << "trial=" << trial;
  }
  EXPECT_GT(truncated, 0u);
}

TEST(FindAllGroups, MatchesReferenceOnRandomSupports) {
  Rng rng(5151);
  std::size_t nonempty = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // k up to 150 crosses the 64-bit word boundaries of the bitset.
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(1, trial % 4 == 0 ? 150 : 16));
    const Assignment assignment = random_support(rng, k);
    const GroupSearchLimits limits = random_limits(rng);
    const auto expected = reference_find_all_groups(assignment, k, limits);
    EXPECT_EQ(find_all_groups(assignment, k, limits), expected)
        << "trial=" << trial << " k=" << k;
    if (!expected.empty()) ++nonempty;
    EXPECT_EQ(prune_groups(expected), reference_prune_groups(expected))
        << "trial=" << trial;
  }
  EXPECT_GT(nonempty, 100u);
}

TEST(PruneGroups, MatchesReferenceWithTiedConflictsAndSizes) {
  // Groups of size 1-3 over a small worker pool: conflict counts and sizes
  // tie constantly, so every branch of the victim rule decides somewhere.
  Rng rng(6161);
  for (int trial = 0; trial < 500; ++trial) {
    const auto pool = rng.uniform_int(2, 12);
    const auto n = rng.uniform_int(0, 24);
    std::vector<Group> groups;
    for (std::int64_t g = 0; g < n; ++g) {
      Group group;
      const auto size = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < size; ++i)
        group.push_back(static_cast<WorkerId>(rng.uniform_int(0, pool - 1)));
      std::sort(group.begin(), group.end());
      group.erase(std::unique(group.begin(), group.end()), group.end());
      groups.push_back(std::move(group));
    }
    const auto pruned = prune_groups(groups);
    EXPECT_EQ(pruned, reference_prune_groups(groups)) << "trial=" << trial;
    EXPECT_TRUE(are_disjoint(pruned));
  }
}

// Property: on allocator-produced supports, every found group is an exact
// cover, and pruning always yields pairwise-disjoint groups.
class GroupSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(GroupSweep, FoundGroupsAreCoversAndPruneDisjoint) {
  const auto [m, s] = GetParam();
  Rng rng(700 + m * 13 + s);
  const std::size_t k = 2 * m;
  for (int trial = 0; trial < 10; ++trial) {
    Throughputs c(m);
    for (double& x : c) x = rng.uniform(1.0, 8.0);
    const auto assignment = cyclic_assignment(heter_aware_counts(c, k, s), k);
    const auto groups = find_all_groups(assignment, k);
    for (const Group& g : groups)
      EXPECT_TRUE(is_exact_cover(assignment, k, g));
    const auto pruned = prune_groups(groups);
    EXPECT_TRUE(are_disjoint(pruned));
    EXPECT_LE(pruned.size(), s + 1);  // ≤ replication factor
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GroupSweep,
                         ::testing::Combine(::testing::Values(4, 6, 8, 12, 16),
                                            ::testing::Values(1, 2, 3)),
                         [](const auto& test_info) {
                           return "m" + std::to_string(std::get<0>(test_info.param)) +
                                  "_s" + std::to_string(std::get<1>(test_info.param));
                         });

}  // namespace
}  // namespace hgc
