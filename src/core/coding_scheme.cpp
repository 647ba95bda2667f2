#include "core/coding_scheme.hpp"

#include <algorithm>

#include "linalg/kernels.hpp"
#include "util/error.hpp"

namespace hgc {
namespace {
// A least-squares residual below this bound certifies 1 ∈ rowspan(B_R).
constexpr double kDecodeResidualTolerance = 1e-8;

void check_shape(const SparseRowMatrix& b, std::size_t assignment_rows,
                 std::size_t s) {
  HGC_REQUIRE(assignment_rows == b.rows(),
              "assignment must have one entry per worker");
  HGC_REQUIRE(s < b.rows(),
              "cannot tolerate as many stragglers as there are workers");
}
}  // namespace

CodingScheme::CodingScheme(SparseRowMatrix b, Assignment assignment,
                           std::size_t s)
    : coding_matrix_(std::move(b)),
      assignment_(std::move(assignment)),
      s_(s) {
  check_shape(coding_matrix_, assignment_.size(), s_);
  // The coding matrix's support must match the declared assignment exactly;
  // the simulator derives per-worker compute load from the assignment and
  // the decoder trusts the matrix, so a mismatch would silently skew both.
  // Sparse rows store exactly the nonzeros in ascending column order, so
  // this is a direct O(nnz) sequence compare — not the old O(m·k) scan.
  for (std::size_t w = 0; w < assignment_.size(); ++w) {
    const auto cols = coding_matrix_.row_cols(w);
    HGC_REQUIRE(std::equal(cols.begin(), cols.end(), assignment_[w].begin(),
                           assignment_[w].end()),
                "coding-matrix support differs from assignment");
  }
}

CodingScheme::CodingScheme(SparseRowMatrix b, std::size_t s)
    : coding_matrix_(std::move(b)), s_(s) {
  check_shape(coding_matrix_, coding_matrix_.rows(), s_);
  // The assignment IS the row structure: supp(b_w), already ascending.
  assignment_.resize(coding_matrix_.rows());
  for (std::size_t w = 0; w < coding_matrix_.rows(); ++w) {
    const auto cols = coding_matrix_.row_cols(w);
    assignment_[w].assign(cols.begin(), cols.end());
  }
}

void CodingScheme::set_decode_gate(DecodeGate gate) {
  HGC_REQUIRE(gate.trigger_of.empty() ||
                  gate.trigger_of.size() == num_workers(),
              "decode gate needs one trigger slot per worker");
  for (std::uint32_t t : gate.trigger_of)
    HGC_REQUIRE(t == DecodeGate::kNoTrigger || t < gate.trigger_need.size(),
                "decode gate trigger out of range");
  decode_gate_ = std::move(gate);
}

std::optional<Vector> CodingScheme::generic_decode(
    const std::vector<bool>& received) const {
  // One workspace per thread: the sweep runtime's worker threads each warm
  // up their own buffers once and then solve allocation-free. Results never
  // depend on workspace history, so this cannot perturb determinism.
  thread_local SolveWorkspace ws;
  return generic_decode(received, ws);
}

std::optional<Vector> CodingScheme::generic_decode(
    const std::vector<bool>& received, SolveWorkspace& ws) const {
  HGC_REQUIRE(received.size() == num_workers(),
              "received flags must have one entry per worker");
  std::vector<std::size_t>& rows = ws.indices;
  rows.clear();
  for (std::size_t w = 0; w < received.size(); ++w)
    if (received[w]) rows.push_back(w);
  if (rows.empty()) return std::nullopt;

  // Solve B_Rᵀ·x = 1 (k equations, |R| unknowns) packed straight from the
  // sparse rows of B (QrWorkspace::factor_transposed).
  ws.qr.factor_transposed(coding_matrix_, rows);
  ws.rhs.assign(num_partitions(), 1.0);
  const double residual = ws.qr.solve_into(ws.rhs, ws.x);
  if (residual > kDecodeResidualTolerance) return std::nullopt;

  Vector coefficients(num_workers(), 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i)
    coefficients[rows[i]] = ws.x[i];
  return coefficients;
}

Vector encode_gradient(const CodingScheme& scheme, WorkerId worker,
                       const std::vector<Vector>& partition_gradients) {
  HGC_REQUIRE(worker < scheme.num_workers(), "worker id out of range");
  HGC_REQUIRE(partition_gradients.size() == scheme.num_partitions(),
              "need one gradient slot per partition");
  const SparseRowMatrix& b = scheme.sparse_matrix();
  const auto cols = b.row_cols(worker);
  const auto values = b.row_values(worker);
  if (cols.empty()) return {};

  // Same coefficients in the same ascending-partition order as the old
  // dense-indexed loop, so every axpy — and every output byte — matches.
  const std::size_t dim = partition_gradients[cols.front()].size();
  Vector coded(dim, 0.0);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const Vector& g = partition_gradients[cols[i]];
    HGC_REQUIRE(g.size() == dim, "partition gradients must share a dimension");
    kernels::axpy(values[i], g, coded);
  }
  return coded;
}

Vector combine_coded_gradients(std::span<const double> coefficients,
                               const std::vector<Vector>& coded) {
  HGC_REQUIRE(coefficients.size() == coded.size(),
              "one coefficient per worker result");
  std::size_t dim = 0;
  for (std::size_t w = 0; w < coded.size(); ++w)
    if (coefficients[w] != 0.0 && !coded[w].empty()) {
      dim = coded[w].size();
      break;
    }
  Vector aggregate(dim, 0.0);
  for (std::size_t w = 0; w < coded.size(); ++w) {
    if (coefficients[w] == 0.0) continue;
    HGC_REQUIRE(!coded[w].empty(),
                "nonzero coefficient for a worker that sent no result");
    HGC_REQUIRE(coded[w].size() == dim, "coded gradients must share a size");
    kernels::axpy(coefficients[w], coded[w], aggregate);
  }
  return aggregate;
}

}  // namespace hgc
