#include "la/dense.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace coe::la {

void DenseMatrix::matvec(std::span<const double> x,
                         std::span<double> y) const {
  assert(x.size() >= cols_ && y.size() >= rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    const double* row = &data_[i * cols_];
    for (std::size_t j = 0; j < cols_; ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

LuFactor::LuFactor(const DenseMatrix& a) : lu_(a), piv_(a.rows()) {
  assert(a.rows() == a.cols());
  const std::size_t n = lu_.rows();
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t p = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    piv_[k] = p;
    if (best == 0.0) {
      ok_ = false;
      continue;
    }
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu_(k, j), lu_(p, j));
      }
    }
    const double inv = 1.0 / lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double l = lu_(i, k) * inv;
      lu_(i, k) = l;
      if (l == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu_(i, j) -= l * lu_(k, j);
      }
    }
  }
}

void LuFactor::solve(std::span<double> b) const {
  const std::size_t n = lu_.rows();
  assert(b.size() >= n);
  // Apply row permutation, forward substitution with unit lower factor.
  for (std::size_t k = 0; k < n; ++k) {
    if (piv_[k] != k) std::swap(b[k], b[piv_[k]]);
    for (std::size_t j = 0; j < k; ++j) b[k] -= lu_(k, j) * b[j];
  }
  // Back substitution.
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t j = k + 1; j < n; ++j) b[k] -= lu_(k, j) * b[j];
    b[k] /= lu_(k, k);
  }
}

void LuFactor::solve_many(std::span<double> rhs) const {
  const std::size_t n = lu_.rows();
  assert(rhs.size() % n == 0);
  for (std::size_t off = 0; off < rhs.size(); off += n) {
    solve(rhs.subspan(off, n));
  }
}

double LuFactor::solve_flops() const {
  const double n = static_cast<double>(lu_.rows());
  return 2.0 * n * n;
}

}  // namespace coe::la
