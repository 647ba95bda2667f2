// The sparse coding layer's contract, pinned:
//   * SparseRowBuilder/from_dense/to_dense structural semantics (sorted
//     columns, dropped zeros, duplicate detection, exact round trips);
//   * the sparse kernels' documented accumulation orders, bit-compared
//     (std::bit_cast, not a tolerance) against the dense references over
//     every kernel backend the host has;
//   * sparse-vs-dense bit-identity where it matters end to end: the solve
//     packing (factor_transposed's sparse scatter vs the dense gather),
//     encode_gradient, and decoding_coefficients, over scheme kinds ×
//     backends × straggler patterns;
//   * sample_straggler_patterns' exact/sampled auto-selection and its
//     documented RNG stream;
//   * a threaded hammer racing the lazy dense view and concurrent decodes
//     (this file carries the `threaded` ctest label and runs under TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/coding_scheme.hpp"
#include "core/cyclic.hpp"
#include "core/robustness.hpp"
#include "core/scheme_factory.hpp"
#include "linalg/kernels.hpp"
#include "linalg/sparse.hpp"
#include "linalg/workspace.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<kernels::Backend> all_available_backends() {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  for (kernels::Backend b :
       {kernels::Backend::kAvx2, kernels::Backend::kNeon})
    if (kernels::backend_available(b)) backends.push_back(b);
  return backends;
}

class BackendRestorer {
 public:
  BackendRestorer() : original_(kernels::active_backend()) {}
  ~BackendRestorer() { kernels::set_backend(original_); }

 private:
  kernels::Backend original_;
};

/// Random sparse matrix with ~`fill` density and no stored zeros (normal
/// draws are never exactly 0.0).
SparseRowMatrix random_sparse(std::size_t rows, std::size_t cols, double fill,
                              Rng& rng) {
  SparseRowBuilder builder(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      if (rng.uniform(0.0, 1.0) < fill) builder.set(r, c, rng.normal());
  return builder.build();
}

/// Paper-like heterogeneous throughputs for m workers (2..16 vCPU spread).
Throughputs spread_throughputs(std::size_t m) {
  Throughputs c(m);
  const double levels[] = {2.0, 4.0, 8.0, 12.0, 16.0};
  for (std::size_t w = 0; w < m; ++w) c[w] = levels[w % 5];
  return c;
}

// ------------------------------------------------ structure semantics --

TEST(SparseBuilder, SortsColumnsAndDropsZeros) {
  SparseRowBuilder builder(3, 8);
  builder.set(1, 5, 2.5);
  builder.set(1, 0, -1.0);
  builder.set(1, 3, 4.0);
  builder.set(2, 7, 0.0);  // dropped: support semantics
  builder.set(0, 2, 1.0);
  const SparseRowMatrix m = builder.build();

  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 8u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.row_nnz(0), 1u);
  EXPECT_EQ(m.row_nnz(1), 3u);
  EXPECT_EQ(m.row_nnz(2), 0u);  // the zero never entered the structure

  const auto cols = m.row_cols(1);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], 0u);
  EXPECT_EQ(cols[1], 3u);
  EXPECT_EQ(cols[2], 5u);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 3), 4.0);
  EXPECT_DOUBLE_EQ(m.at(1, 5), 2.5);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);  // absent ⇒ 0.0
  EXPECT_DOUBLE_EQ(m.at(2, 7), 0.0);
}

TEST(SparseBuilder, DuplicateEntryThrows) {
  SparseRowBuilder builder(2, 4);
  builder.set(0, 1, 1.0);
  builder.set(0, 1, 2.0);
  EXPECT_THROW(builder.build(), std::invalid_argument);
}

TEST(SparseRowMatrix, DenseRoundTripIsExact) {
  Rng rng(301);
  const SparseRowMatrix sparse = random_sparse(7, 11, 0.3, rng);
  const Matrix dense = sparse.to_dense();
  const SparseRowMatrix back = SparseRowMatrix::from_dense(dense);

  ASSERT_EQ(back.rows(), sparse.rows());
  ASSERT_EQ(back.cols(), sparse.cols());
  ASSERT_EQ(back.nnz(), sparse.nnz());
  for (std::size_t r = 0; r < sparse.rows(); ++r) {
    const auto cols_a = sparse.row_cols(r);
    const auto cols_b = back.row_cols(r);
    const auto vals_a = sparse.row_values(r);
    const auto vals_b = back.row_values(r);
    ASSERT_EQ(cols_a.size(), cols_b.size()) << "row " << r;
    for (std::size_t i = 0; i < cols_a.size(); ++i) {
      EXPECT_EQ(cols_a[i], cols_b[i]) << "row " << r;
      EXPECT_EQ(bits(vals_a[i]), bits(vals_b[i])) << "row " << r;
    }
  }
  // And the dense materialization fills absent entries with +0.0 exactly.
  for (std::size_t r = 0; r < sparse.rows(); ++r)
    for (std::size_t c = 0; c < sparse.cols(); ++c)
      EXPECT_EQ(bits(dense(r, c)), bits(sparse.at(r, c)));
}

// ----------------------------------------- kernel accumulation orders --

TEST(SparseKernels, RowDotAndGemvFollowAscendingScalarChain) {
  Rng rng(302);
  const SparseRowMatrix a = random_sparse(9, 14, 0.35, rng);
  std::vector<double> x(a.cols());
  for (double& v : x) v = rng.normal();

  std::vector<double> y(a.rows(), 99.0);  // gemv must overwrite
  sparse::gemv(a, x, y);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    // The documented order: one scalar chain over nonzeros, columns
    // ascending. Reproduce it exactly and require the same bits.
    const auto cols = a.row_cols(r);
    const auto vals = a.row_values(r);
    double ref = 0.0;
    for (std::size_t i = 0; i < cols.size(); ++i) ref += vals[i] * x[cols[i]];
    EXPECT_EQ(bits(sparse::row_dot(a, r, x)), bits(ref)) << "row " << r;
    EXPECT_EQ(bits(y[r]), bits(ref)) << "row " << r;
  }
}

TEST(SparseKernels, GemvTransposeBitIdenticalToDenseOnEveryBackend) {
  // The load-bearing kernel contract: sparse gemv_t sums each y[c] in row
  // order — the dense kernels::gemv_t order with structural zeros skipped —
  // so the verification product a·B never changes a byte going sparse, on
  // any backend.
  BackendRestorer restore;
  Rng rng(303);
  for (const auto& [rows, cols, fill] :
       {std::tuple{1ul, 1ul, 1.0}, {5ul, 9ul, 0.4}, {16ul, 33ul, 0.2},
        {58ul, 116ul, 0.05}}) {
    const SparseRowMatrix a = random_sparse(rows, cols, fill, rng);
    const Matrix dense = a.to_dense();
    std::vector<double> x(rows);
    for (double& v : x) v = rng.normal();

    for (kernels::Backend backend : all_available_backends()) {
      ASSERT_TRUE(kernels::set_backend(backend));
      std::vector<double> y_sparse(cols, 99.0);
      sparse::gemv_t(a, x, y_sparse);
      std::vector<double> y_dense(cols, -99.0);
      kernels::gemv_t(dense.data().data(), cols, rows, cols, x, y_dense);
      for (std::size_t c = 0; c < cols; ++c)
        ASSERT_EQ(bits(y_sparse[c]), bits(y_dense[c]))
            << kernels::backend_name(backend) << " rows=" << rows
            << " cols=" << cols << " c=" << c;
    }
  }
}

TEST(SparseKernels, AddScaledRowMatchesGemvTDecomposition) {
  Rng rng(304);
  const SparseRowMatrix a = random_sparse(6, 10, 0.4, rng);
  std::vector<double> x(a.rows());
  for (double& v : x) v = rng.normal();

  std::vector<double> via_kernel(a.cols(), 99.0);
  sparse::gemv_t(a, x, via_kernel);
  // gemv_t is definitionally: zero, then add_scaled_row per row ascending.
  std::vector<double> via_rows(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    sparse::add_scaled_row(a, r, x[r], via_rows);
  for (std::size_t c = 0; c < a.cols(); ++c)
    EXPECT_EQ(bits(via_kernel[c]), bits(via_rows[c])) << "c=" << c;
}

// ----------------------- sparse vs dense bit-identity, end to end --------

/// Straggler patterns exercised per scheme: none, a prefix, a scattered
/// pair, the last workers.
std::vector<std::vector<bool>> receive_patterns(std::size_t m,
                                                std::size_t s) {
  std::vector<std::vector<bool>> patterns;
  patterns.emplace_back(m, true);
  for (std::size_t variant = 0; variant < 3 && s > 0; ++variant) {
    std::vector<bool> received(m, true);
    for (std::size_t i = 0; i < s; ++i) {
      const std::size_t straggler = variant == 0   ? i
                                    : variant == 1 ? (3 * i + 1) % m
                                                   : m - 1 - i;
      received[straggler] = false;
    }
    patterns.push_back(std::move(received));
  }
  return patterns;
}

TEST(SparseSchemes, SolvePackingBitIdenticalToDenseGather) {
  // QrWorkspace::factor_transposed's sparse overload zero-fills and
  // scatters; the dense overload gathers. Identical packed buffer ⇒
  // identical factorization bytes ⇒ identical solve bytes. Pin the solve
  // output across scheme kinds × backends × row subsets.
  BackendRestorer restore;
  const std::size_t k = 16, s = 2;
  for (SchemeKind kind :
       {SchemeKind::kNaive, SchemeKind::kCyclic,
        SchemeKind::kFractionalRepetition, SchemeKind::kHeterAware,
        SchemeKind::kGroupBased}) {
    // Fractional repetition needs (s+1) | m; 9 workers for it, 8 elsewhere.
    const std::size_t m = kind == SchemeKind::kFractionalRepetition ? 9 : 8;
    const Throughputs c = spread_throughputs(m);
    Rng rng(305);
    const auto scheme = make_scheme(kind, c, k, s, rng);
    const SparseRowMatrix& b = scheme->sparse_matrix();
    const Matrix dense = b.to_dense();
    const Vector ones(b.cols(), 1.0);

    for (const auto& received : receive_patterns(scheme->num_workers(), s)) {
      std::vector<std::size_t> rows;
      for (std::size_t w = 0; w < received.size(); ++w)
        if (received[w]) rows.push_back(w);

      for (kernels::Backend backend : all_available_backends()) {
        ASSERT_TRUE(kernels::set_backend(backend));
        QrWorkspace ws_sparse, ws_dense;
        Vector x_sparse, x_dense;
        ws_sparse.factor_transposed(b, rows);
        const double r_sparse = ws_sparse.solve_into(ones, x_sparse);
        ws_dense.factor_transposed(RowSelectView(dense, rows));
        const double r_dense = ws_dense.solve_into(ones, x_dense);

        const std::string where = to_string(kind) + std::string(" on ") +
                                  kernels::backend_name(backend);
        EXPECT_EQ(ws_sparse.rank(), ws_dense.rank()) << where;
        EXPECT_EQ(bits(r_sparse), bits(r_dense)) << where;
        ASSERT_EQ(x_sparse.size(), x_dense.size()) << where;
        for (std::size_t i = 0; i < x_sparse.size(); ++i)
          ASSERT_EQ(bits(x_sparse[i]), bits(x_dense[i]))
              << where << " x[" << i << "]";
      }
    }
  }
}

TEST(SparseSchemes, DecodingCoefficientsBitIdenticalAcrossBackends) {
  // The public decode output itself: same bytes on every backend (the
  // sparse kernels are scalar by design; the dense solve underneath is
  // already backend-pinned).
  BackendRestorer restore;
  const std::vector<kernels::Backend> backends = all_available_backends();
  const std::size_t m = 8, k = 16, s = 2;
  const Throughputs c = spread_throughputs(m);
  for (SchemeKind kind : paper_schemes()) {
    Rng rng(306);
    const auto scheme = make_scheme(kind, c, k, s, rng);
    for (const auto& received :
         receive_patterns(scheme->num_workers(),
                          scheme->stragglers_tolerated())) {
      ASSERT_TRUE(kernels::set_backend(kernels::Backend::kScalar));
      const auto ref = scheme->decoding_coefficients(received);
      ASSERT_TRUE(ref.has_value()) << to_string(kind);
      for (kernels::Backend backend : backends) {
        ASSERT_TRUE(kernels::set_backend(backend));
        const auto got = scheme->decoding_coefficients(received);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->size(), ref->size());
        for (std::size_t i = 0; i < ref->size(); ++i)
          ASSERT_EQ(bits((*got)[i]), bits((*ref)[i]))
              << to_string(kind) << " on "
              << kernels::backend_name(backend) << " a[" << i << "]";
      }
    }
  }
}

TEST(SparseSchemes, EncodeGradientMatchesDenseAxpyOrder) {
  // encode_gradient iterates the sparse row; the pre-sparse implementation
  // swept all k partitions with dense coefficients. Same partition order,
  // and a zero-coefficient axpy contributes ±0.0 to finite accumulators —
  // bit-identical, pinned here against a dense reference on every backend.
  BackendRestorer restore;
  const std::size_t m = 8, k = 16, s = 2;
  const Throughputs c = spread_throughputs(m);
  const std::size_t dim = 33;
  for (SchemeKind kind : paper_schemes()) {
    Rng rng(307);
    const auto scheme = make_scheme(kind, c, k, s, rng);
    const Matrix dense = scheme->sparse_matrix().to_dense();
    std::vector<Vector> gradients(scheme->num_partitions());
    for (auto& g : gradients) {
      g.resize(dim);
      for (double& v : g) v = rng.normal();
    }
    for (kernels::Backend backend : all_available_backends()) {
      ASSERT_TRUE(kernels::set_backend(backend));
      for (WorkerId w = 0; w < scheme->num_workers(); ++w) {
        const Vector coded = encode_gradient(*scheme, w, gradients);
        Vector ref(dim, 0.0);
        for (std::size_t p = 0; p < scheme->num_partitions(); ++p)
          kernels::axpy(dense(w, p), gradients[p], ref);
        for (std::size_t i = 0; i < dim; ++i)
          ASSERT_EQ(bits(coded[i]), bits(ref[i]))
              << to_string(kind) << " on "
              << kernels::backend_name(backend) << " worker " << w;
      }
    }
  }
}

TEST(SparseSchemes, AssignmentDerivedFromRowStructure) {
  // Satellite: the assignment is the row structure, no dense scan.
  const std::size_t m = 12, k = 24, s = 2;
  Rng rng(308);
  const auto scheme =
      make_scheme(SchemeKind::kHeterAware, spread_throughputs(m), k, s, rng);
  const SparseRowMatrix& b = scheme->sparse_matrix();
  ASSERT_EQ(scheme->assignment().size(), m);
  for (WorkerId w = 0; w < m; ++w) {
    const auto cols = b.row_cols(w);
    const auto& assigned = scheme->assignment()[w];
    ASSERT_EQ(assigned.size(), cols.size()) << "worker " << w;
    for (std::size_t i = 0; i < cols.size(); ++i)
      EXPECT_EQ(assigned[i], cols[i]) << "worker " << w;
    EXPECT_EQ(scheme->load(w), cols.size());
  }
}

// ------------------------------------------- straggler pattern sampling --

TEST(StragglerSampling, CountSaturatesAtCap) {
  EXPECT_EQ(count_straggler_patterns(8, 2, 1000), 28u);
  EXPECT_EQ(count_straggler_patterns(8, 6, 1000), 28u);  // symmetry
  EXPECT_EQ(count_straggler_patterns(8, 0, 1000), 1u);
  EXPECT_EQ(count_straggler_patterns(8, 8, 1000), 1u);
  EXPECT_EQ(count_straggler_patterns(10000, 2, 1000), 1000u);  // saturated
  EXPECT_EQ(count_straggler_patterns(10000, 5000, 7), 7u);
}

TEST(StragglerSampling, AutoSelectsExactEnumerationWhenFeasible) {
  // C(8,2) = 28 ≤ 100 ⇒ the exact lexicographic enumeration runs, seed
  // ignored.
  std::vector<StragglerSet> exact;
  for_each_straggler_pattern(8, 2, [&](const StragglerSet& p) {
    exact.push_back(p);
    return true;
  });
  ASSERT_EQ(exact.size(), 28u);

  for (std::uint64_t seed : {1ull, 99ull}) {
    std::vector<StragglerSet> sampled;
    sample_straggler_patterns(8, 2, 100, seed, [&](const StragglerSet& p) {
      sampled.push_back(p);
      return true;
    });
    EXPECT_EQ(sampled, exact) << "seed " << seed;
  }
}

TEST(StragglerSampling, SampledModeIsSeededAndWellFormed) {
  // C(100,3) = 161700 > 50 ⇒ sampled mode: exactly 50 patterns, each a
  // sorted s-subset of [0, m), reproducible per seed.
  const std::size_t m = 100, s = 3, budget = 50;
  const auto draw = [&](std::uint64_t seed) {
    std::vector<StragglerSet> patterns;
    sample_straggler_patterns(m, s, budget, seed,
                              [&](const StragglerSet& p) {
                                patterns.push_back(p);
                                return true;
                              });
    return patterns;
  };
  const auto first = draw(42);
  ASSERT_EQ(first.size(), budget);
  for (const StragglerSet& p : first) {
    ASSERT_EQ(p.size(), s);
    for (std::size_t i = 0; i < s; ++i) {
      EXPECT_LT(p[i], m);
      if (i > 0) {
        EXPECT_LT(p[i - 1], p[i]);  // sorted, distinct
      }
    }
  }
  EXPECT_EQ(draw(42), first);   // same seed ⇒ same stream
  EXPECT_NE(draw(43), first);   // different seed ⇒ different patterns
}

TEST(StragglerSampling, EarlyExitPropagates) {
  std::size_t visited = 0;
  const bool completed =
      sample_straggler_patterns(100, 3, 50, 7, [&](const StragglerSet&) {
        return ++visited < 10;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visited, 10u);
}

TEST(Robustness, EstimateMatchesExhaustiveWorstCase) {
  Rng rng(312);
  const CyclicScheme scheme(8, 2, rng);
  const Throughputs c = spread_throughputs(8);
  const auto exact = worst_case_time(scheme, c);
  ASSERT_TRUE(exact.has_value());

  const RobustnessEstimate estimate =
      estimate_worst_case_time(scheme, c, 1000, /*seed=*/5);
  EXPECT_TRUE(estimate.exhaustive);
  EXPECT_EQ(estimate.patterns_checked, 29u);  // C(8,2) + zero-straggler
  EXPECT_EQ(estimate.undecodable, 0u);
  EXPECT_DOUBLE_EQ(estimate.worst_time, *exact);
}

TEST(Robustness, SparseOnesInRowSpanAgreesWithDense) {
  Rng rng(313);
  const CyclicScheme scheme(8, 2, rng);
  const SparseRowMatrix& b = scheme.sparse_matrix();
  const Matrix dense = b.to_dense();
  SolveWorkspace ws;
  StragglerSet pattern;
  for_each_straggler_pattern(8, 2, [&](const StragglerSet& stragglers) {
    std::vector<std::size_t> rows;
    for (std::size_t w = 0; w < 8; ++w)
      if (std::find(stragglers.begin(), stragglers.end(), w) ==
          stragglers.end())
        rows.push_back(w);
    EXPECT_EQ(ones_in_row_span(b, rows, 1e-8, ws),
              ones_in_row_span(dense, rows, 1e-8, ws));
    EXPECT_EQ(ones_in_row_span(b, rows), ones_in_row_span(dense, rows));
    return true;
  }, pattern);
}

// ----------------------------------------------------- threaded hammer --

TEST(SparseThreaded, ConcurrentLazyDenseViewAndDecodesAreExact) {
  // Sweep threads share one scheme: the first coding_matrix() call races
  // the lazy dense-view materialization (std::call_once), while other
  // threads decode and encode concurrently. Every thread must reproduce
  // the single-threaded bytes exactly. Runs under TSan via the `threaded`
  // ctest label.
  const std::size_t m = 32, k = 64, s = 2;
  Rng rng(314);
  const auto scheme =
      make_scheme(SchemeKind::kHeterAware, spread_throughputs(m), k, s, rng);

  // References computed BEFORE any dense-view access (decode and encode run
  // purely off the sparse structure), so the threads below genuinely race
  // the first materialization.
  const auto patterns = receive_patterns(m, s);
  std::vector<Vector> reference_coefficients;
  for (const auto& received : patterns) {
    const auto a = scheme->decoding_coefficients(received);
    ASSERT_TRUE(a.has_value());
    reference_coefficients.push_back(*a);
  }
  std::vector<Vector> gradients(k);
  for (auto& g : gradients) {
    g.resize(9);
    for (double& v : g) v = rng.normal();
  }
  const Vector reference_coded = encode_gradient(*scheme, 3, gradients);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 16; ++iter) {
        // Race the lazy dense view; its bytes must equal the sparse form.
        const Matrix& dense = scheme->coding_matrix();
        if (dense.rows() != m || dense.cols() != k)
          mismatches.fetch_add(1, std::memory_order_relaxed);
        const auto& received = patterns[static_cast<std::size_t>(
            (t + iter) % static_cast<int>(patterns.size()))];
        const auto a = scheme->decoding_coefficients(received);
        const Vector& ref = reference_coefficients[static_cast<std::size_t>(
            (t + iter) % static_cast<int>(patterns.size()))];
        if (!a || a->size() != ref.size()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t i = 0; i < ref.size(); ++i)
          if (bits((*a)[i]) != bits(ref[i]))
            mismatches.fetch_add(1, std::memory_order_relaxed);
        const Vector coded = encode_gradient(*scheme, 3, gradients);
        for (std::size_t i = 0; i < coded.size(); ++i)
          if (bits(coded[i]) != bits(reference_coded[i]))
            mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The racing threads materialized the dense view; it must be the exact
  // sparse bytes.
  const Matrix& dense = scheme->coding_matrix();
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < k; ++c)
      ASSERT_EQ(bits(dense(r, c)), bits(scheme->sparse_matrix().at(r, c)));
}

}  // namespace
}  // namespace hgc
