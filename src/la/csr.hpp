#pragma once
// Compressed-sparse-row matrices: the hypre/cuSPARSE substitute. SpMV is
// annotated for the machine model (Section 4.10.1: the BoomerAMG solve
// phase "can completely be performed in terms of matrix-vector
// multiplications").

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/exec.hpp"

namespace coe::la {

/// Triplet (COO) entry used when assembling.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {
    rowptr_.assign(rows + 1, 0);
  }

  /// Builds from triplets; duplicate (row, col) entries are summed.
  static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::vector<Triplet> triplets);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return colind_.size(); }

  std::span<const std::size_t> rowptr() const { return rowptr_; }
  std::span<const std::uint32_t> colind() const { return colind_; }
  std::span<const double> values() const { return values_; }
  std::span<double> values() { return values_; }

  /// y = A x, cost-annotated (2 flops/nnz, val+colind reads, x gather, y write).
  void spmv(core::ExecContext& ctx, std::span<const double> x,
            std::span<double> y) const;

  /// y = A^T x (serial; used in AMG setup only).
  void spmv_transpose(std::span<const double> x, std::span<double> y) const;

  CsrMatrix transpose() const;

  /// Sparse matrix-matrix product (this * B), classical row-merge.
  CsrMatrix multiply(const CsrMatrix& b) const;

  /// Extracts the diagonal (0 where absent).
  std::vector<double> diagonal() const;

  /// Sum of absolute values per row (for l1-Jacobi smoothing).
  std::vector<double> l1_row_sums() const;

  /// Per-column sums w = A^T e — the Huang–Abraham ABFT checksum vector:
  /// for any x, e^T (A x) must equal w^T x (see la/abft.hpp).
  std::vector<double> column_sums() const;

  /// Bytes the matrix itself occupies (values + colind + rowptr) — its
  /// device-memory footprint for residency accounting.
  double footprint_bytes() const {
    return static_cast<double>(nnz()) * (8.0 + 4.0) +
           static_cast<double>(rows() + 1) * 8.0;
  }

  /// Per-SpMV data traffic in bytes (for roofline reporting).
  double spmv_bytes() const {
    return static_cast<double>(nnz()) * (8.0 + 4.0 + 8.0) +
           static_cast<double>(rows()) * (8.0 + 8.0);
  }
  double spmv_flops() const { return 2.0 * static_cast<double>(nnz()); }

  /// Direct raw access for builders.
  std::vector<std::size_t>& rowptr_mut() { return rowptr_; }
  std::vector<std::uint32_t>& colind_mut() { return colind_; }
  std::vector<double>& values_mut() { return values_; }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> rowptr_;
  std::vector<std::uint32_t> colind_;
  std::vector<double> values_;
};

/// 5-point Poisson test matrix used across tests and benches.
CsrMatrix poisson2d(std::size_t nx, std::size_t ny);

}  // namespace coe::la
