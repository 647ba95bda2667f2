#include "core/groups.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "util/error.hpp"

namespace hgc {
namespace {

/// Fixed-size bitset backed by 64-bit words: the uncovered partitions
/// during the search, a group's member workers when ordering the result.
class BitSet {
 public:
  explicit BitSet(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  void set(std::size_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
  void clear(std::size_t i) {
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  bool test(std::size_t i) const { return (words_[i / 64] >> (i % 64)) & 1; }

  /// Index of the lowest set bit at or above `from`; bits_ if none.
  std::size_t lowest_from(std::size_t from) const {
    std::size_t w = from / 64;
    if (w >= words_.size()) return bits_;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from % 64));
    while (word == 0) {
      if (++w == words_.size()) return bits_;
      word = words_[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
  }

  /// Calls f(i) for every set index i, in ascending order.
  template <class F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      for (std::uint64_t word = words_[w]; word != 0; word &= word - 1)
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
  }

  /// Lowest index set in exactly one of the two sets; bits_ if they match.
  std::size_t lowest_difference(const BitSet& other) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      if (const std::uint64_t diff = words_[w] ^ other.words_[w])
        return w * 64 + static_cast<std::size_t>(std::countr_zero(diff));
    return bits_;
  }

 private:
  std::size_t bits_;
  std::vector<std::uint64_t> words_;
};

/// Exact-cover DFS over one `remaining` bitset. Each step walks only the
/// chosen worker's partition list, so a node costs O(|holders| · |support|)
/// plus the scan for the next uncovered partition, which resumes at the
/// parent's: `remaining` only shrinks with depth.
struct GroupSearch {
  const Assignment& assignment;
  const std::vector<std::vector<WorkerId>>& holders;
  const GroupSearchLimits& limits;
  std::vector<Group>& out;
  BitSet remaining;
  Group chosen{};
  std::size_t nodes = 0;

  bool exhausted() const {
    return out.size() >= limits.max_groups || nodes >= limits.max_nodes;
  }

  bool fits(WorkerId w) const {
    return std::all_of(assignment[w].begin(), assignment[w].end(),
                       [&](PartitionId p) { return remaining.test(p); });
  }

  void dfs(std::size_t from) {
    if (exhausted()) return;
    ++nodes;
    const std::size_t lowest = remaining.lowest_from(from);
    if (lowest == holders.size()) {
      // All partitions covered: `chosen` is an exact cover.
      out.push_back(chosen);
      return;
    }
    // Branch on the lowest uncovered partition: exactly one worker in any
    // cover supplies it, so every cover is enumerated exactly once.
    for (WorkerId w : holders[lowest]) {
      if (!fits(w)) continue;
      chosen.push_back(w);
      for (PartitionId p : assignment[w]) remaining.clear(p);
      dfs(lowest);
      for (PartitionId p : assignment[w]) remaining.set(p);
      chosen.pop_back();
      if (exhausted()) return;
    }
  }
};

}  // namespace

std::vector<Group> find_all_groups(const Assignment& assignment,
                                   std::size_t k,
                                   const GroupSearchLimits& limits) {
  HGC_REQUIRE(k > 0, "need at least one partition");
  const std::size_t m = assignment.size();

  std::vector<std::vector<WorkerId>> holders(k);
  for (std::size_t w = 0; w < m; ++w)
    for (PartitionId p : assignment[w]) {
      HGC_REQUIRE(p < k, "partition id out of range");
      holders[p].push_back(w);
    }

  std::vector<Group> groups;
  GroupSearch search{assignment, holders, limits, groups, BitSet(k)};
  for (std::size_t p = 0; p < k; ++p) search.remaining.set(p);
  search.dfs(0);

  // Canonical order: each group ascending, the groups lexicographic. At
  // scale the covers run to thousands of workers and share long prefixes,
  // so both sorts go through one m-bit member set per group: a group is read
  // back ascending from its set, and two groups compare at their lowest
  // differing worker, 64 workers per step. Below that worker x they agree,
  // so the group holding x is the smaller unless the other ends before x.
  std::vector<BitSet> members(groups.size(), BitSet(m));
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (WorkerId w : groups[g]) members[g].set(w);
    std::size_t i = 0;
    members[g].for_each_set([&](std::size_t w) { groups[g][i++] = w; });
  }
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t x = members[a].lowest_difference(members[b]);
    if (x == m) return false;
    return members[a].test(x) ? groups[b].back() > x : groups[a].back() < x;
  });
  std::vector<Group> sorted;
  sorted.reserve(groups.size());
  for (std::size_t g : order) sorted.push_back(std::move(groups[g]));
  return sorted;
}

std::vector<Group> prune_groups(std::vector<Group> groups) {
  auto intersects = [](const Group& a, const Group& b) {
    // Both sorted: linear merge scan.
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] == b[j]) return true;
      if (a[i] < b[j])
        ++i;
      else
        ++j;
    }
    return false;
  };

  // The conflict graph is built once, one row of n bits per group. A
  // removal only decrements the victim's live neighbours, so the pairwise
  // tests are not repeated per removal.
  const std::size_t n = groups.size();
  std::vector<BitSet> conflicts_with(n, BitSet(n));
  std::vector<std::size_t> conflicts(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (intersects(groups[i], groups[j])) {
        conflicts_with[i].set(j);
        conflicts_with[j].set(i);
        ++conflicts[i];
        ++conflicts[j];
      }
  BitSet alive(n);
  for (std::size_t i = 0; i < n; ++i) alive.set(i);

  while (true) {
    // Remove the group with the most conflicts; break ties toward the larger
    // group (harder to complete at runtime), then the later index.
    std::size_t victim = n;
    alive.for_each_set([&](std::size_t i) {
      if (victim == n || conflicts[i] > conflicts[victim] ||
          (conflicts[i] == conflicts[victim] &&
           groups[i].size() >= groups[victim].size()))
        victim = i;
    });
    if (victim == n || conflicts[victim] == 0) break;
    alive.clear(victim);
    conflicts_with[victim].for_each_set([&](std::size_t j) {
      if (alive.test(j)) --conflicts[j];
    });
  }

  std::vector<Group> kept;
  alive.for_each_set(
      [&](std::size_t i) { kept.push_back(std::move(groups[i])); });
  return kept;
}

bool is_exact_cover(const Assignment& assignment, std::size_t k,
                    const Group& group) {
  std::vector<std::size_t> copies(k, 0);
  for (WorkerId w : group) {
    if (w >= assignment.size()) return false;
    for (PartitionId p : assignment[w]) {
      if (p >= k) return false;
      ++copies[p];
    }
  }
  return std::all_of(copies.begin(), copies.end(),
                     [](std::size_t c) { return c == 1; });
}

bool are_disjoint(const std::vector<Group>& groups) {
  std::vector<WorkerId> all;
  for (const Group& g : groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  return std::adjacent_find(all.begin(), all.end()) == all.end();
}

}  // namespace hgc
