// Tests for the heterogeneity-aware data allocation (Eq. 5/6): proportional
// rounding invariants and cyclic-assignment replication guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/allocation.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

TEST(ProportionalCounts, ExactProportionsUntouched) {
  // Paper Example 1: c = [1,2,3,4,4], k=7, s=1 -> n = [1,2,3,4,4].
  const std::vector<double> c = {1, 2, 3, 4, 4};
  const auto n = proportional_counts(c, 14, 7);
  EXPECT_EQ(n, (std::vector<std::size_t>{1, 2, 3, 4, 4}));
}

TEST(ProportionalCounts, SumIsPreserved) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = 2 + static_cast<std::size_t>(trial % 9);
    std::vector<double> w(m);
    for (double& x : w) x = rng.uniform(0.1, 10.0);
    const std::size_t cap = 10;
    const std::size_t total =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<int>(m * cap)));
    const auto counts = proportional_counts(w, total, cap);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
              total);
    for (std::size_t n : counts) EXPECT_LE(n, cap);
  }
}

TEST(ProportionalCounts, RespectsCapAndRedistributes) {
  // One dominant weight would take 18 of 20 but is capped at 10.
  const std::vector<double> w = {90.0, 5.0, 5.0};
  const auto counts = proportional_counts(w, 20, 10);
  EXPECT_EQ(counts[0], 10u);
  EXPECT_EQ(counts[1] + counts[2], 10u);
}

TEST(ProportionalCounts, ZeroWeightGetsNothingWhenOthersSuffice) {
  const std::vector<double> w = {0.0, 1.0, 1.0};
  const auto counts = proportional_counts(w, 4, 4);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
}

TEST(ProportionalCounts, MonotoneInWeight) {
  // A strictly larger weight never receives fewer partitions.
  const std::vector<double> w = {1.0, 2.0, 4.0, 8.0};
  const auto counts = proportional_counts(w, 15, 15);
  for (std::size_t i = 1; i < counts.size(); ++i)
    EXPECT_LE(counts[i - 1], counts[i]);
}

TEST(ProportionalCounts, RejectsImpossibleTotal) {
  const std::vector<double> w = {1.0, 1.0};
  EXPECT_THROW(proportional_counts(w, 9, 4), std::invalid_argument);
}

TEST(ProportionalCounts, RejectsAllZeroWeights) {
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(proportional_counts(w, 2, 2), std::invalid_argument);
}

TEST(ProportionalCounts, RejectsNegativeWeight) {
  const std::vector<double> w = {1.0, -0.5};
  EXPECT_THROW(proportional_counts(w, 2, 2), std::invalid_argument);
}

// Reference: the remainder loop as a linear argmax rescan per unit (strict
// `>` over ascending indices, so ties go to the lower index). The library
// hands out the same units through a heap; the two must agree exactly.
std::vector<std::size_t> reference_proportional_counts(
    std::span<const double> weights, std::size_t total, std::size_t cap) {
  const std::size_t m = weights.size();
  double weight_sum = 0.0;
  for (double w : weights) weight_sum += w;
  std::vector<double> ideal(m);
  for (std::size_t i = 0; i < m; ++i)
    ideal[i] = static_cast<double>(total) * weights[i] / weight_sum;
  std::vector<std::size_t> counts(m);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < m; ++i) {
    counts[i] = std::min(static_cast<std::size_t>(std::floor(ideal[i])), cap);
    assigned += counts[i];
  }
  for (std::size_t left = total - assigned; left > 0; --left) {
    std::size_t best = m;
    double best_deficit = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (counts[i] >= cap) continue;
      const double deficit = ideal[i] - static_cast<double>(counts[i]);
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = i;
      }
    }
    ++counts[best];
  }
  return counts;
}

TEST(ProportionalCounts, MatchesLinearScanReference) {
  Rng rng(2024);
  std::size_t multi_increment_cases = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto m = static_cast<std::size_t>(
        trial % 4 == 0 ? rng.uniform_int(500, 1000) : rng.uniform_int(1, 40));
    std::vector<double> w(m);
    switch (trial % 5) {
      case 0:  // continuous weights
        for (double& x : w) x = rng.uniform(0.1, 10.0);
        break;
      case 1:  // few distinct values: exact ties everywhere
        for (double& x : w) x = static_cast<double>(rng.uniform_int(1, 3));
        break;
      case 2:  // zeros mixed with tied positives
        for (double& x : w) x = rng.bernoulli(0.4) ? 0.0 : 2.0;
        break;
      case 3:  // one dominant worker whose cap binds
        for (double& x : w) x = rng.uniform(0.5, 1.5);
        w[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(m) - 1))] =
            1000.0 * static_cast<double>(m);
        break;
      default:  // all equal
        std::fill(w.begin(), w.end(), 1.0);
    }
    if (std::all_of(w.begin(), w.end(), [](double x) { return x == 0.0; }))
      w[0] = 1.0;
    const std::size_t cap = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const std::size_t total = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cap * m)));
    const auto expected = reference_proportional_counts(w, total, cap);
    EXPECT_EQ(proportional_counts(w, total, cap), expected)
        << "trial=" << trial << " m=" << m << " total=" << total
        << " cap=" << cap;

    // Count the inputs whose remainder gives some worker two or more units
    // (only possible when caps bind), so the sweep provably covers them.
    double weight_sum = 0.0;
    for (double x : w) weight_sum += x;
    for (std::size_t i = 0; i < m; ++i) {
      const auto floor_count = std::min(
          static_cast<std::size_t>(
              std::floor(static_cast<double>(total) * w[i] / weight_sum)),
          cap);
      if (expected[i] >= floor_count + 2) {
        ++multi_increment_cases;
        break;
      }
    }
  }
  EXPECT_GT(multi_increment_cases, 10u);
}

TEST(ProportionalCounts, HeterAwareCountsMatchReferenceAtScale) {
  // The Eq. 5 call shape (total = k(s+1), cap = k) up to m = 1000.
  Rng rng(77);
  for (std::size_t m : {10u, 100u, 1000u}) {
    for (std::size_t s : {1u, 2u, 3u}) {
      Throughputs c(m);
      for (double& x : c) x = rng.uniform(1.0, 8.0);
      const std::size_t k = 2 * m;
      EXPECT_EQ(heter_aware_counts(c, k, s),
                reference_proportional_counts(c, k * (s + 1), k))
          << "m=" << m << " s=" << s;
    }
  }
}

TEST(HeterAwareCounts, MatchesEquationFive) {
  // c=[2,2,4,8], k=8, s=1: k(s+1)=16, n_i = 16*c_i/16 = c_i.
  const Throughputs c = {2, 2, 4, 8};
  const auto n = heter_aware_counts(c, 8, 1);
  EXPECT_EQ(n, (std::vector<std::size_t>{2, 2, 4, 8}));
}

TEST(HeterAwareCounts, RequiresEnoughWorkers) {
  const Throughputs c = {1.0, 1.0};
  EXPECT_THROW(heter_aware_counts(c, 4, 2), std::invalid_argument);
}

TEST(CyclicAssignment, PaperExampleSupports) {
  // Example 1: n=[1,2,3,4,4], k=7 -> W4 wraps around to {0,1,2,6}.
  const std::vector<std::size_t> counts = {1, 2, 3, 4, 4};
  const auto assignment = cyclic_assignment(counts, 7);
  EXPECT_EQ(assignment[0], (std::vector<PartitionId>{0}));
  EXPECT_EQ(assignment[1], (std::vector<PartitionId>{1, 2}));
  EXPECT_EQ(assignment[2], (std::vector<PartitionId>{3, 4, 5}));
  EXPECT_EQ(assignment[3], (std::vector<PartitionId>{0, 1, 2, 6}));
  EXPECT_EQ(assignment[4], (std::vector<PartitionId>{3, 4, 5, 6}));
}

TEST(CyclicAssignment, RejectsOverfullWorker) {
  const std::vector<std::size_t> counts = {5, 3};
  EXPECT_THROW(cyclic_assignment(counts, 4), std::invalid_argument);
}

TEST(CyclicAssignment, RejectsNonMultipleTotal) {
  const std::vector<std::size_t> counts = {2, 3};
  EXPECT_THROW(cyclic_assignment(counts, 4), std::invalid_argument);
}

TEST(CyclicSchemeAssignment, UniformLoads) {
  const auto assignment = cyclic_scheme_assignment(6, 2);
  ASSERT_EQ(assignment.size(), 6u);
  for (const auto& parts : assignment) EXPECT_EQ(parts.size(), 3u);
  EXPECT_TRUE(is_valid_allocation(assignment, 6, 2));
}

TEST(ReplicationProfile, CountsCopies) {
  const Assignment assignment = {{0, 1}, {1, 0}};
  const auto copies = replication_profile(assignment, 2);
  EXPECT_EQ(copies, (std::vector<std::size_t>{2, 2}));
}

TEST(IsValidAllocation, DetectsDuplicateWithinWorker) {
  const Assignment bad = {{0, 0}, {1, 1}};
  EXPECT_FALSE(is_valid_allocation(bad, 2, 1));
}

TEST(IsValidAllocation, DetectsWrongReplication) {
  const Assignment bad = {{0}, {0}, {1}};
  EXPECT_FALSE(is_valid_allocation(bad, 2, 1));
}

// Property sweep: for a grid of (m, s, k) and random throughputs, the
// end-to-end allocation always replicates every partition exactly s+1 times
// across distinct workers.
struct AllocationCase {
  std::size_t m, s, k;
};

class AllocationSweep : public ::testing::TestWithParam<AllocationCase> {};

TEST_P(AllocationSweep, AlwaysValid) {
  const auto [m, s, k] = GetParam();
  Rng rng(m * 1000 + s * 100 + k);
  for (int trial = 0; trial < 20; ++trial) {
    Throughputs c(m);
    for (double& x : c) x = rng.uniform(0.5, 16.0);
    const auto counts = heter_aware_counts(c, k, s);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
              k * (s + 1));
    const auto assignment = cyclic_assignment(counts, k);
    EXPECT_TRUE(is_valid_allocation(assignment, k, s))
        << "m=" << m << " s=" << s << " k=" << k << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllocationSweep,
    ::testing::Values(AllocationCase{3, 1, 3}, AllocationCase{3, 1, 6},
                      AllocationCase{4, 1, 8}, AllocationCase{5, 1, 7},
                      AllocationCase{5, 2, 10}, AllocationCase{6, 2, 6},
                      AllocationCase{7, 2, 14}, AllocationCase{8, 1, 8},
                      AllocationCase{8, 3, 16}, AllocationCase{10, 2, 20},
                      AllocationCase{12, 3, 24}, AllocationCase{16, 4, 32},
                      AllocationCase{32, 2, 64}, AllocationCase{58, 3, 116}),
    [](const auto& test_info) {
      return "m" + std::to_string(test_info.param.m) + "_s" +
             std::to_string(test_info.param.s) + "_k" + std::to_string(test_info.param.k);
    });

}  // namespace
}  // namespace hgc
