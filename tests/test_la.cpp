// Unit tests for the linear-algebra substrate: dense LU, CSR kernels,
// smoothers, and the Krylov solvers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"
#include "la/la.hpp"

namespace {

using namespace coe;

la::DenseMatrix random_spd(std::size_t n, core::Rng& rng) {
  la::DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
    a(i, i) += double(n);  // diagonally dominant => SPD
  }
  return a;
}

TEST(Dense, MatvecIdentity) {
  auto id = la::DenseMatrix::identity(5);
  std::vector<double> x{1, 2, 3, 4, 5}, y(5);
  id.matvec(x, y);
  EXPECT_EQ(x, y);
}

TEST(Dense, LuSolvesRandomSystem) {
  core::Rng rng(42);
  const std::size_t n = 30;
  auto a = random_spd(n, rng);
  std::vector<double> x_true(n), b(n);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  a.matvec(x_true, b);
  la::LuFactor lu(a);
  ASSERT_TRUE(lu.ok());
  lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);
}

TEST(Dense, LuDetectsSingular) {
  la::DenseMatrix a(3, 3);  // all zeros
  la::LuFactor lu(a);
  EXPECT_FALSE(lu.ok());
}

TEST(Dense, LuNeedsPivoting) {
  // Zero on the leading diagonal forces a row swap.
  la::DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  la::LuFactor lu(a);
  ASSERT_TRUE(lu.ok());
  std::vector<double> b{3.0, 7.0};
  lu.solve(b);
  EXPECT_NEAR(b[0], 7.0, 1e-14);
  EXPECT_NEAR(b[1], 3.0, 1e-14);
}

TEST(Dense, SolveManyHandlesBatches) {
  core::Rng rng(5);
  auto a = random_spd(8, rng);
  la::LuFactor lu(a);
  std::vector<double> rhs(8 * 3);
  std::vector<double> xs(8 * 3);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t i = 0; i < 8; ++i) xs[s * 8 + i] = double(s + 1) * i;
    a.matvec(std::span<const double>(xs).subspan(s * 8, 8),
             std::span<double>(rhs).subspan(s * 8, 8));
  }
  lu.solve_many(rhs);
  for (std::size_t i = 0; i < rhs.size(); ++i) EXPECT_NEAR(rhs[i], xs[i], 1e-9);
}

TEST(Csr, FromTripletsSumsDuplicates) {
  auto m = la::CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}, {0, 1, -1.0}});
  EXPECT_EQ(m.nnz(), 3u);
  auto d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], 5.0);
}

bool same_csr(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  auto bits_equal = [](auto x, auto y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  };
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         bits_equal(a.rowptr(), b.rowptr()) &&
         bits_equal(a.colind(), b.colind()) &&
         bits_equal(a.values(), b.values());
}

TEST(Csr, FromTripletsAscendingInputMatchesShuffledCopy) {
  core::Rng rng(23);
  const std::size_t n = 60;
  std::vector<la::Triplet> ascending;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform() < 0.2) {
        ascending.push_back({i, j, rng.uniform(-1.0, 1.0)});
      }
    }
  }
  auto shuffled = ascending;
  for (std::size_t k = shuffled.size(); k > 1; --k) {
    std::swap(shuffled[k - 1], shuffled[rng.next_u64() % k]);
  }
  EXPECT_TRUE(same_csr(la::CsrMatrix::from_triplets(n, n, ascending),
                       la::CsrMatrix::from_triplets(n, n, shuffled)));
}

TEST(Csr, FromTripletsSortedDuplicatesSumInStdSortOrder) {
  // Sorted but not strictly ascending: the duplicates must still go
  // through std::sort, whose unstable order fixes how they are summed.
  core::Rng rng(29);
  std::vector<la::Triplet> trips;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t k = 0; k < 200; ++k) {
        trips.push_back({r, c, rng.uniform(-1.0, 1.0) *
                                   std::ldexp(1.0, int(rng.next_u64() % 60))});
      }
    }
  }
  auto less = [](const la::Triplet& a, const la::Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  auto ref = trips;
  std::sort(ref.begin(), ref.end(), less);
  bool permuted = false;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    permuted |= ref[k].value != trips[k].value;
  }
  ASSERT_TRUE(permuted) << "std::sort kept the input order; the test "
                           "cannot tell the sort path from a skipped sort";

  la::CsrMatrix want(3, 2);
  for (std::size_t k = 0; k < ref.size();) {
    double v = 0.0;
    const std::size_t r = ref[k].row, c = ref[k].col;
    for (; k < ref.size() && ref[k].row == r && ref[k].col == c; ++k) {
      v += ref[k].value;
    }
    want.colind_mut().push_back(static_cast<std::uint32_t>(c));
    want.values_mut().push_back(v);
    want.rowptr_mut()[r + 1] = want.colind_mut().size();
  }
  EXPECT_TRUE(same_csr(la::CsrMatrix::from_triplets(3, 2, trips), want));
}

TEST(Csr, SpmvMatchesDense) {
  core::Rng rng(17);
  const std::size_t n = 40;
  std::vector<la::Triplet> trips;
  la::DenseMatrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform() < 0.15) {
        const double v = rng.uniform(-1.0, 1.0);
        trips.push_back({i, j, v});
        dense(i, j) = v;
      }
    }
  }
  auto sparse = la::CsrMatrix::from_triplets(n, n, trips);
  std::vector<double> x(n), y1(n), y2(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  sparse.spmv(ctx, x, y1);
  dense.matvec(x, y2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
  EXPECT_EQ(ctx.counters().launches, 1u);
  EXPECT_DOUBLE_EQ(ctx.counters().flops, 2.0 * double(sparse.nnz()));
}

TEST(Csr, TransposeRoundTrip) {
  auto a = la::poisson2d(7, 5);
  auto att = a.transpose().transpose();
  ASSERT_EQ(att.nnz(), a.nnz());
  for (std::size_t k = 0; k < a.nnz(); ++k) {
    EXPECT_EQ(att.colind()[k], a.colind()[k]);
    EXPECT_DOUBLE_EQ(att.values()[k], a.values()[k]);
  }
}

TEST(Csr, TransposeMatchesSpmvTranspose) {
  auto a = la::poisson2d(6, 6);
  std::vector<double> x(a.rows()), y1(a.rows()), y2(a.rows());
  core::Rng rng(3);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  a.spmv_transpose(x, y1);
  auto at = a.transpose();
  auto ctx = core::make_seq();
  at.spmv(ctx, x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(Csr, MultiplyMatchesDense) {
  core::Rng rng(23);
  const std::size_t n = 20;
  std::vector<la::Triplet> ta, tb;
  la::DenseMatrix da(n, n), db(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform() < 0.2) {
        const double v = rng.uniform(-1.0, 1.0);
        ta.push_back({i, j, v});
        da(i, j) = v;
      }
      if (rng.uniform() < 0.2) {
        const double v = rng.uniform(-1.0, 1.0);
        tb.push_back({i, j, v});
        db(i, j) = v;
      }
    }
  }
  auto a = la::CsrMatrix::from_triplets(n, n, ta);
  auto b = la::CsrMatrix::from_triplets(n, n, tb);
  auto c = a.multiply(b);
  // Dense reference product.
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(n, 0.0);
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t j = 0; j < n; ++j) row[j] += da(i, l) * db(l, j);
    }
    std::vector<double> crow(n, 0.0);
    for (std::size_t k = c.rowptr()[i]; k < c.rowptr()[i + 1]; ++k) {
      crow[c.colind()[k]] = c.values()[k];
    }
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(crow[j], row[j], 1e-12);
  }
}

TEST(Csr, Poisson2dStructure) {
  auto a = la::poisson2d(10, 10);
  EXPECT_EQ(a.rows(), 100u);
  // Interior rows have 5 entries; nnz = 5*n - 2*(nx + ny) boundary losses.
  EXPECT_EQ(a.nnz(), 5u * 100u - 2u * 20u);
  auto d = a.diagonal();
  for (double v : d) EXPECT_DOUBLE_EQ(v, 4.0);
}

class KrylovPoisson : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KrylovPoisson, CgConverges) {
  const std::size_t nx = GetParam();
  auto a = la::poisson2d(nx, nx);
  const std::size_t n = a.rows();
  std::vector<double> x_true(n), b(n), x(n, 0.0);
  core::Rng rng(7);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  a.spmv(ctx, x_true, b);
  la::CsrOperator op(a);
  la::JacobiPreconditioner prec(a);
  auto res = la::cg(ctx, op, prec, b, x, {.max_iters = 2000, .rel_tol = 1e-10});
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KrylovPoisson,
                         ::testing::Values(4, 8, 16, 24));

TEST(Krylov, CgZeroRhs) {
  auto a = la::poisson2d(5, 5);
  std::vector<double> b(a.rows(), 0.0), x(a.rows(), 0.0);
  auto ctx = core::make_seq();
  la::CsrOperator op(a);
  la::IdentityPreconditioner id;
  auto res = la::cg(ctx, op, id, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
}

TEST(Krylov, BicgstabSolvesNonsymmetric) {
  // Convection-diffusion style nonsymmetric matrix.
  const std::size_t n = 64;
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({i, i, 4.0});
    if (i > 0) t.push_back({i, i - 1, -1.5});
    if (i + 1 < n) t.push_back({i, i + 1, -0.5});
  }
  auto a = la::CsrMatrix::from_triplets(n, n, t);
  std::vector<double> x_true(n), b(n), x(n, 0.0);
  core::Rng rng(9);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  a.spmv(ctx, x_true, b);
  la::CsrOperator op(a);
  la::JacobiPreconditioner prec(a);
  auto res = la::bicgstab(ctx, op, prec, b, x,
                          {.max_iters = 500, .rel_tol = 1e-12});
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Krylov, GmresSolvesNonsymmetric) {
  const std::size_t n = 64;
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({i, i, 3.0});
    if (i > 0) t.push_back({i, i - 1, -2.0});
    if (i + 1 < n) t.push_back({i, i + 1, -0.3});
  }
  auto a = la::CsrMatrix::from_triplets(n, n, t);
  std::vector<double> x_true(n), b(n), x(n, 0.0);
  core::Rng rng(11);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  a.spmv(ctx, x_true, b);
  la::CsrOperator op(a);
  la::JacobiPreconditioner prec(a);
  auto res = la::gmres(ctx, op, prec, b, x, 20,
                       {.max_iters = 500, .rel_tol = 1e-12});
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

/// Exits 0 when GMRES(0) throws std::invalid_argument, 1 when it returns;
/// the alarm kills it after 5 s if it does neither.
[[noreturn]] void gmres_zero_restart() {
  alarm(5);
  auto a = la::poisson2d(4, 4);
  la::CsrOperator op(a);
  la::JacobiPreconditioner prec(a);
  std::vector<double> b(a.rows(), 1.0);
  std::vector<double> x(a.rows(), 0.0);
  auto ctx = core::make_seq();
  try {
    la::gmres(ctx, op, prec, b, x, 0);
  } catch (const std::invalid_argument&) {
    std::exit(0);
  }
  std::exit(1);
}

TEST(Krylov, GmresZeroRestartThrows) {
  // GMRES(0) has no inner iteration to make progress with. The solve runs
  // in a child process, so a solver that never returns fails this test on
  // the alarm instead of hanging the suite.
  EXPECT_EXIT(gmres_zero_restart(), ::testing::ExitedWithCode(0), "");
}

TEST(Smoothers, JacobiReducesResidual) {
  auto a = la::poisson2d(12, 12);
  const std::size_t n = a.rows();
  std::vector<double> b(n, 1.0), x(n, 0.0), scratch(n), r(n);
  auto diag = a.diagonal();
  auto ctx = core::make_seq();

  auto resid = [&]() {
    a.spmv(ctx, x, r);
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += (b[i] - r[i]) * (b[i] - r[i]);
    return std::sqrt(s);
  };
  const double r0 = resid();
  for (int s = 0; s < 10; ++s) {
    la::jacobi_sweep(ctx, a, diag, 0.8, b, x, scratch);
  }
  EXPECT_LT(resid(), 0.7 * r0);
}

TEST(Smoothers, GaussSeidelBeatsJacobiPerSweep) {
  auto a = la::poisson2d(12, 12);
  const std::size_t n = a.rows();
  std::vector<double> b(n, 1.0), xj(n, 0.0), xg(n, 0.0), scratch(n), r(n);
  auto diag = a.diagonal();
  auto ctx = core::make_seq();
  auto resid = [&](std::span<double> x) {
    a.spmv(ctx, x, r);
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += (b[i] - r[i]) * (b[i] - r[i]);
    return std::sqrt(s);
  };
  for (int s = 0; s < 5; ++s) {
    la::jacobi_sweep(ctx, a, diag, 0.8, b, xj, scratch);
    la::gauss_seidel_sweep(ctx, a, b, xg);
  }
  EXPECT_LT(resid(xg), resid(xj));
}

TEST(Smoothers, L1JacobiConvergesUnweighted) {
  auto a = la::poisson2d(10, 10);
  const std::size_t n = a.rows();
  std::vector<double> b(n, 1.0), x(n, 0.0), scratch(n), r(n);
  auto l1 = a.l1_row_sums();
  auto ctx = core::make_seq();
  for (int s = 0; s < 600; ++s) {
    la::l1_jacobi_sweep(ctx, a, l1, b, x, scratch);
  }
  a.spmv(ctx, x, r);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-3);
}

TEST(Abft, ChecksumVectorIsExactColumnSums) {
  // w = A^T e on a small asymmetric rectangular matrix, checked against
  // hand-computed column sums (exact: each column sum is a short sum of
  // representable values).
  auto a = la::CsrMatrix::from_triplets(
      3, 4,
      {{0, 0, 2.0}, {0, 2, -1.5}, {1, 1, 4.0}, {1, 2, 0.5}, {2, 0, 1.0},
       {2, 3, -3.0}});
  la::AbftCsrOperator op(a);
  auto w = op.checksum();
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 3.0);   // 2 + 1
  EXPECT_DOUBLE_EQ(w[1], 4.0);
  EXPECT_DOUBLE_EQ(w[2], -1.0);  // -1.5 + 0.5
  EXPECT_DOUBLE_EQ(w[3], -3.0);

  // Clean applies satisfy the Huang–Abraham identity within tolerance.
  auto ctx = core::make_seq();
  std::vector<double> x{1.0, -2.0, 3.0, 0.25}, y(3);
  op.apply(ctx, x, y);
  EXPECT_EQ(op.checks(), 1u);
  EXPECT_EQ(op.trips(), 0u);
  EXPECT_LT(op.last_relative_error(), 1e-12);
}

TEST(VectorOps, BasicIdentities) {
  auto ctx = core::make_seq();
  std::vector<double> x{1, 2, 3}, y{4, 5, 6}, z(3);
  EXPECT_DOUBLE_EQ(la::dot(ctx, x, y), 32.0);
  EXPECT_DOUBLE_EQ(la::norm2(ctx, x), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(la::norm_inf(ctx, y), 6.0);
  la::axpby(ctx, 2.0, x, -1.0, y, z);
  EXPECT_DOUBLE_EQ(z[0], -2.0);
  EXPECT_DOUBLE_EQ(z[2], 0.0);
  la::fill(ctx, z, 7.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
}

}  // namespace
