#include "la/csr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace coe::la {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> rowptr,
                     std::vector<std::uint32_t> colind,
                     std::vector<double> values)
    : rows_(rows), cols_(cols), rowptr_(std::move(rowptr)),
      colind_(std::move(colind)), values_(std::move(values)) {
  auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("CsrMatrix: ") + what);
  };
  if (rowptr_.size() != rows_ + 1 || rowptr_[0] != 0) {
    fail("rowptr must have rows + 1 entries and start at 0");
  }
  if (rowptr_[rows_] != colind_.size() || colind_.size() != values_.size()) {
    fail("rowptr must end at the size of colind and of values");
  }
  // Monotone first: with the end checked, every row then lies in colind.
  for (std::size_t r = 0; r < rows_; ++r) {
    if (rowptr_[r + 1] < rowptr_[r]) fail("rowptr must not decrease");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
      const bool ascending = k == rowptr_[r] || colind_[k - 1] < colind_[k];
      if (colind_[k] >= cols_ || !ascending) {
        fail("columns must be below cols and strictly ascending in a row");
      }
    }
  }
}

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets) {
  auto less = [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  // Strictly ascending keys have exactly one sorted order, so sorting them
  // could not change the result (kinetics/solver.cpp builds such input).
  const bool ascending =
      std::adjacent_find(triplets.begin(), triplets.end(),
                         [&](const Triplet& a, const Triplet& b) {
                           return !less(a, b);
                         }) == triplets.end();
  if (!ascending) std::sort(triplets.begin(), triplets.end(), less);
  CsrMatrix m(rows, cols);
  m.colind_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    m.rowptr_[r] = m.colind_.size();
    while (i < triplets.size() && triplets[i].row == r) {
      const std::size_t c = triplets[i].col;
      double v = 0.0;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      m.colind_.push_back(static_cast<std::uint32_t>(c));
      m.values_.push_back(v);
    }
  }
  m.rowptr_[rows] = m.colind_.size();
  return m;
}

void CsrMatrix::spmv(core::ExecContext& ctx, std::span<const double> x,
                     std::span<double> y) const {
  assert(x.size() >= cols_ && y.size() >= rows_);
  const double flops = spmv_flops();
  const double bytes = spmv_bytes();
  ctx.forall(rows_,
             {flops / static_cast<double>(rows_ ? rows_ : 1),
              bytes / static_cast<double>(rows_ ? rows_ : 1)},
             [&](std::size_t r) {
               double s = 0.0;
               for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
                 s += values_[k] * x[colind_[k]];
               }
               y[r] = s;
             });
}

void CsrMatrix::spmv_transpose(std::span<const double> x,
                               std::span<double> y) const {
  assert(x.size() >= rows_ && y.size() >= cols_);
  std::fill(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(cols_), 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
      y[colind_[k]] += values_[k] * x[r];
    }
  }
}

CsrMatrix CsrMatrix::transpose() const {
  CsrMatrix t(cols_, rows_);
  std::vector<std::size_t> count(cols_, 0);
  for (auto c : colind_) ++count[c];
  t.rowptr_.assign(cols_ + 1, 0);
  for (std::size_t c = 0; c < cols_; ++c) {
    t.rowptr_[c + 1] = t.rowptr_[c] + count[c];
  }
  t.colind_.resize(nnz());
  t.values_.resize(nnz());
  std::vector<std::size_t> cursor(t.rowptr_.begin(), t.rowptr_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
      const std::size_t pos = cursor[colind_[k]]++;
      t.colind_[pos] = static_cast<std::uint32_t>(r);
      t.values_[pos] = values_[k];
    }
  }
  return t;
}

CsrMatrix CsrMatrix::multiply(const CsrMatrix& b) const {
  assert(cols_ == b.rows_);
  CsrMatrix c(rows_, b.cols_);
  // Gustavson row-merge with a dense accumulator.
  std::vector<double> acc(b.cols_, 0.0);
  std::vector<std::uint32_t> marker(b.cols_, 0);
  std::vector<std::uint32_t> row_cols;
  std::uint32_t stamp = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    ++stamp;
    row_cols.clear();
    for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
      const std::size_t ak = colind_[k];
      const double av = values_[k];
      for (std::size_t j = b.rowptr_[ak]; j < b.rowptr_[ak + 1]; ++j) {
        const std::uint32_t col = b.colind_[j];
        if (marker[col] != stamp) {
          marker[col] = stamp;
          acc[col] = 0.0;
          row_cols.push_back(col);
        }
        acc[col] += av * b.values_[j];
      }
    }
    std::sort(row_cols.begin(), row_cols.end());
    c.rowptr_[r] = c.colind_.size();
    for (auto col : row_cols) {
      c.colind_.push_back(col);
      c.values_.push_back(acc[col]);
    }
  }
  c.rowptr_[rows_] = c.colind_.size();
  return c;
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
      if (colind_[k] == r) d[r] = values_[k];
    }
  }
  return d;
}

std::vector<double> CsrMatrix::l1_row_sums() const {
  std::vector<double> d(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
      d[r] += std::abs(values_[k]);
    }
  }
  return d;
}

std::vector<double> CsrMatrix::column_sums() const {
  std::vector<double> w(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
      w[colind_[k]] += values_[k];
    }
  }
  return w;
}

CsrMatrix poisson2d(std::size_t nx, std::size_t ny) {
  const std::size_t n = nx * ny;
  std::vector<Triplet> t;
  t.reserve(5 * n);
  auto id = [nx](std::size_t i, std::size_t j) { return j * nx + i; };
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t r = id(i, j);
      t.push_back({r, r, 4.0});
      if (i > 0) t.push_back({r, id(i - 1, j), -1.0});
      if (i + 1 < nx) t.push_back({r, id(i + 1, j), -1.0});
      if (j > 0) t.push_back({r, id(i, j - 1), -1.0});
      if (j + 1 < ny) t.push_back({r, id(i, j + 1), -1.0});
    }
  }
  return CsrMatrix::from_triplets(n, n, std::move(t));
}

}  // namespace coe::la
