#pragma once
// Dense matrices with LU factorization. Used by the Cretin rate-matrix
// direct solve (the cuSOLVER substitute) and small element matrices in FEM.

#include <cstddef>
#include <span>
#include <vector>

namespace coe::la {

/// Row-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double init = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// y = A x (plain serial gemv).
  void matvec(std::span<const double> x, std::span<double> y) const;

  static DenseMatrix identity(std::size_t n);

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting (LAPACK getrf/getrs shape).
class LuFactor {
 public:
  /// Factors a copy of `a`; `ok()` reports whether a nonzero pivot was
  /// found in every column.
  explicit LuFactor(const DenseMatrix& a);

  bool ok() const { return ok_; }
  std::size_t n() const { return lu_.rows(); }

  /// Solves A x = b in place (b becomes x).
  void solve(std::span<double> b) const;
  /// Solves for multiple right-hand sides stored contiguously (n each).
  void solve_many(std::span<double> rhs) const;

  /// Flop count of one triangular solve (2 n^2).
  double solve_flops() const;

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> piv_;
  bool ok_ = true;
};

}  // namespace coe::la
