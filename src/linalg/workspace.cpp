#include "linalg/workspace.hpp"

#include <algorithm>

#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hgc {

// ------------------------------------------------------------ LuWorkspace --

bool LuWorkspace::factor(const Matrix& a) {
  HGC_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  lu_.reshape(a.rows(), a.cols());
  std::copy(a.data().begin(), a.data().end(), lu_.data().begin());
  return factor_packed();
}

bool LuWorkspace::factor_cols(const Matrix& a,
                              std::span<const std::size_t> cols) {
  HGC_REQUIRE(a.rows() == cols.size(),
              "LU requires a square matrix (rows vs selected cols)");
  lu_.reshape(a.rows(), cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    HGC_REQUIRE(cols[i] < a.cols(), "column selection out of range");
    for (std::size_t r = 0; r < a.rows(); ++r) lu_(r, i) = a(r, cols[i]);
  }
  return factor_packed();
}

bool LuWorkspace::factor_packed() {
  // Disabled observability cost here is one relaxed load + branch per
  // handle: this sits under every decode solve and must stay allocation-
  // free and branch-predictable (BM_KernelLuSolveWorkspace pins it).
  HGC_TRACE_SCOPE("lu_factor", "linalg",
                  static_cast<std::int64_t>(lu_.rows()));
  if (obs::metrics_enabled()) {
    static const obs::Counter factors =
        obs::Registry::global().counter("linalg.lu_factors");
    factors.add();
  }
  singular_ = !linalg_detail::lu_factor_inplace(lu_, perm_, sign_);
  return !singular_;
}

void LuWorkspace::solve_into(std::span<const double> b, Vector& x) const {
  HGC_REQUIRE(b.size() == lu_.rows(), "rhs length mismatch");
  HGC_ASSERT(!singular_, "solve_into() on a singular matrix");
  x.resize(lu_.rows());
  linalg_detail::lu_solve_inplace(lu_, perm_, b, x);
}

// ------------------------------------------------------------ QrWorkspace --

void QrWorkspace::factor(const Matrix& a, double tolerance) {
  qr_.reshape(a.rows(), a.cols());
  std::copy(a.data().begin(), a.data().end(), qr_.data().begin());
  factor_packed(tolerance);
}

void QrWorkspace::factor_transposed(const SparseRowMatrix& b,
                                    std::span<const std::size_t> rows,
                                    double tolerance) {
  // Pack (B_R)ᵀ column by column: zero-fill, then scatter row i's nonzeros
  // down column i. The packed bytes equal a dense copy's (absent entries
  // are +0.0 there too), so packing from CSR cannot change a factorization
  // bit.
  qr_.reshape(b.cols(), rows.size());
  std::fill(qr_.data().begin(), qr_.data().end(), 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    HGC_REQUIRE(rows[i] < b.rows(), "row selection out of range");
    const auto cols = b.row_cols(rows[i]);
    const auto values = b.row_values(rows[i]);
    for (std::size_t j = 0; j < cols.size(); ++j)
      qr_(cols[j], i) = values[j];
  }
  factor_packed(tolerance);
}

void QrWorkspace::factor_packed(double tolerance) {
  HGC_TRACE_SCOPE("qr_factor", "linalg",
                  static_cast<std::int64_t>(qr_.rows()));
  if (obs::metrics_enabled()) {
    static const obs::Counter factors =
        obs::Registry::global().counter("linalg.qr_factors");
    factors.add();
  }
  rank_ = linalg_detail::qr_factor_inplace(qr_, beta_, perm_, col_norms_,
                                           update_, tolerance);
}

double QrWorkspace::solve_into(std::span<const double> b, Vector& x) {
  HGC_REQUIRE(b.size() == qr_.rows(), "rhs length mismatch");
  y_.assign(b.begin(), b.end());
  return linalg_detail::qr_solve_inplace(qr_, beta_, perm_, rank_, y_, x);
}

InPlaceSolveInfo least_squares_into(const Matrix& a,
                                    std::span<const double> b,
                                    QrWorkspace& ws, Vector& x,
                                    double tolerance) {
  ws.factor(a, tolerance);
  InPlaceSolveInfo info;
  info.residual = ws.solve_into(b, x);
  info.rank = ws.rank();
  return info;
}

}  // namespace hgc
