// Reusable factorization workspaces and in-place solve APIs.
//
// Every novel straggler pattern costs a dense solve over a small slice of
// the coding matrix (Algorithm 1, the generic decodability test,
// Condition-1 sweeps), packed from B's CSR rows by factor_transposed.
// The one-shot helpers (lu_solve, least_squares) allocate factor and
// scratch buffers per call; at sweep/robustness scale that per-call traffic
// dominates. A workspace owns those buffers and reuses them call over call:
// after one warm-up solve per shape, further solves of the same (or
// smaller) shape perform ZERO heap allocations — test_kernels pins that
// with an instrumented allocator.
//
// Threading: a workspace is mutable scratch — never share one across
// threads. Results never depend on workspace history (every factor() fully
// overwrites the packed state), so per-thread reuse cannot perturb the
// sweep's byte-identical-output contract. The decode hot paths keep one
// workspace per thread via `thread_local`, which hands each sweep worker
// thread its own set for free.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace hgc {

/// PA = LU with partial pivoting over owned, reusable storage.
class LuWorkspace {
 public:
  /// Copy `a` (square) into the reused buffer and factor. Returns false
  /// when a pivot underflowed the singularity threshold.
  bool factor(const Matrix& a);

  /// Factor the square gather a[:, cols] without materializing select_cols.
  bool factor_cols(const Matrix& a, std::span<const std::size_t> cols);

  bool is_singular() const { return singular_; }

  /// Solve A·x = b against the last factor; x is resized (no allocation
  /// once its capacity covers the shape). Throws hgc::InternalError when
  /// the factored matrix was singular.
  void solve_into(std::span<const double> b, Vector& x) const;

 private:
  bool factor_packed();

  Matrix lu_;
  std::vector<std::size_t> perm_;
  int sign_ = 1;
  bool singular_ = false;
};

/// Householder QR with column pivoting over owned, reusable storage; the
/// rank-revealing least-squares engine behind the generic decodability test.
class QrWorkspace {
 public:
  /// Copy `a` into the reused buffer and factor.
  void factor(const Matrix& a, double tolerance = 1e-10);

  /// Factor (B_R)ᵀ for a row selection `rows` of B (repeats allowed, any
  /// order; each must be < b.rows()), packed straight from the CSR rows:
  /// each selected row's column is zero-filled, then its nonzeros scattered
  /// in. No select_rows/transposed temporaries. For a support-clean matrix
  /// the packed buffer is byte-identical to
  /// factor(b.to_dense().select_rows(rows).transposed()).
  void factor_transposed(const SparseRowMatrix& b,
                         std::span<const std::size_t> rows,
                         double tolerance = 1e-10);

  std::size_t rank() const { return rank_; }
  std::size_t rows() const { return qr_.rows(); }
  std::size_t cols() const { return qr_.cols(); }

  /// Least-squares min ‖A·x − b‖₂ against the last factor. Writes the basic
  /// solution into x (resized; free variables zero) and returns the
  /// residual norm.
  double solve_into(std::span<const double> b, Vector& x);

 private:
  void factor_packed(double tolerance);

  Matrix qr_;
  Vector beta_;
  Vector col_norms_;              // pivot bookkeeping scratch
  Vector update_;                 // trailing-update row scratch
  Vector y_;                      // rhs working copy for solves
  std::vector<std::size_t> perm_;
  std::size_t rank_ = 0;
};

/// The bundle the decode/robustness hot paths thread through their loops:
/// both factorization engines plus the index and vector scratch the callers
/// need to stay allocation-free.
struct SolveWorkspace {
  QrWorkspace qr;
  LuWorkspace lu;
  Vector rhs;                          ///< right-hand sides (e.g. all-ones)
  Vector x;                            ///< solution scratch
  std::vector<std::size_t> indices;    ///< row/column selections
  std::vector<std::size_t> indices2;   ///< second selection (enumerations)
};

/// Shape + diagnostics of an in-place least-squares solve.
struct InPlaceSolveInfo {
  double residual = 0.0;
  std::size_t rank = 0;
};

/// Factor `a` into the workspace's reused storage; false when singular.
inline bool lu_factor_into(const Matrix& a, LuWorkspace& ws) {
  return ws.factor(a);
}

/// One-stop in-place least squares: factor `a` in ws, solve for b, write
/// the basic solution into x. Equivalent to least_squares() minus the
/// per-call allocations.
InPlaceSolveInfo least_squares_into(const Matrix& a,
                                    std::span<const double> b,
                                    QrWorkspace& ws, Vector& x,
                                    double tolerance = 1e-10);

}  // namespace hgc
