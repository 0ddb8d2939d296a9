// Tests for the mini-hypre module: BoomerAMG setup internals, V-cycle
// convergence, AMG-preconditioned CG, and the structured BoxLoop solver.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "amg/amg.hpp"
#include "core/rng.hpp"
#include "la/la.hpp"

namespace {

using namespace coe;

TEST(Strength, KeepsOnlyStrongNegativeEntries) {
  // Row 0: offdiag -4 and -1 with theta=0.5 -> only -4 is strong.
  auto a = la::CsrMatrix::from_triplets(
      3, 3,
      {{0, 0, 6.0}, {0, 1, -4.0}, {0, 2, -1.0},
       {1, 0, -4.0}, {1, 1, 5.0},
       {2, 0, -1.0}, {2, 2, 2.0}});
  auto s = amg::strength_graph(a, 0.5);
  EXPECT_EQ(s.rowptr()[1] - s.rowptr()[0], 1u);
  EXPECT_EQ(s.colind()[0], 1u);
}

TEST(Strength, PositiveOffdiagIgnored) {
  auto a = la::CsrMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}});
  auto s = amg::strength_graph(a, 0.25);
  EXPECT_EQ(s.nnz(), 0u);
}

TEST(Pmis, ProducesValidSplitting) {
  auto a = la::poisson2d(20, 20);
  auto s = amg::strength_graph(a, 0.25);
  auto cf = amg::pmis_coarsen(s);
  std::size_t nc = 0;
  for (auto t : cf) nc += (t == amg::PointType::Coarse);
  // Poisson coarsens to roughly a quarter..half of the points.
  EXPECT_GT(nc, a.rows() / 8);
  EXPECT_LT(nc, a.rows() * 3 / 4);
  // Every fine point must have a strong coarse neighbour.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (cf[i] == amg::PointType::Coarse) continue;
    if (s.rowptr()[i + 1] == s.rowptr()[i]) continue;
    bool has_c = false;
    for (std::size_t k = s.rowptr()[i]; k < s.rowptr()[i + 1]; ++k) {
      has_c |= (cf[s.colind()[k]] == amg::PointType::Coarse);
    }
    EXPECT_TRUE(has_c) << "fine point " << i << " has no coarse neighbour";
  }
}

TEST(Interp, RowsSumToOneForMMatrix) {
  // For an M-matrix with zero row sums at interior points, direct
  // interpolation rows of fine points sum to ~a_ii-normalized weights; for
  // coarse points the row is exactly the unit vector.
  auto a = la::poisson2d(12, 12);
  auto s = amg::strength_graph(a, 0.25);
  auto cf = amg::pmis_coarsen(s);
  auto p = amg::direct_interpolation(a, s, cf);
  std::size_t nc = 0;
  for (auto t : cf) nc += (t == amg::PointType::Coarse);
  EXPECT_EQ(p.cols(), nc);
  EXPECT_EQ(p.rows(), a.rows());
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double row_sum = 0.0;
    for (std::size_t k = p.rowptr()[i]; k < p.rowptr()[i + 1]; ++k) {
      row_sum += p.values()[k];
      EXPECT_GE(p.values()[k], 0.0);  // M-matrix -> nonnegative weights
    }
    if (cf[i] == amg::PointType::Coarse) {
      EXPECT_DOUBLE_EQ(row_sum, 1.0);
    } else if (p.rowptr()[i + 1] > p.rowptr()[i]) {
      EXPECT_GT(row_sum, 0.0);
      EXPECT_LE(row_sum, 1.5);
    }
  }
}

class BoomerAmgPoisson : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BoomerAmgPoisson, VcycleSolves) {
  const std::size_t nx = GetParam();
  auto a = la::poisson2d(nx, nx);
  const std::size_t n = a.rows();
  amg::BoomerAmg amg_solver(a, {});
  EXPECT_GE(amg_solver.num_levels(), 2u);
  EXPECT_LT(amg_solver.operator_complexity(), 3.0);

  std::vector<double> x_true(n), b(n), x(n, 0.0);
  core::Rng rng(1);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  a.spmv(ctx, x_true, b);
  const std::size_t iters = amg_solver.solve(ctx, b, x, 1e-8, 100);
  EXPECT_LT(iters, 60u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BoomerAmgPoisson,
                         ::testing::Values(16, 24, 32));

TEST(BoomerAmg, PreconditionsCgFasterThanJacobi) {
  auto a = la::poisson2d(32, 32);
  const std::size_t n = a.rows();
  std::vector<double> b(n, 1.0);
  la::CsrOperator op(a);
  la::SolveOptions opts{.max_iters = 1000, .rel_tol = 1e-8};

  auto ctx1 = core::make_seq();
  std::vector<double> x1(n, 0.0);
  la::JacobiPreconditioner jac(a);
  auto r1 = la::cg(ctx1, op, jac, b, x1, opts);

  auto ctx2 = core::make_seq();
  std::vector<double> x2(n, 0.0);
  amg::BoomerAmg prec(a, {});
  auto r2 = la::cg(ctx2, op, prec, b, x2, opts);

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations / 2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-5);
}

TEST(BoomerAmg, AnisotropicProblemStillConverges) {
  // Strong coupling in x only: strength graph should pick it up.
  const std::size_t nx = 24, ny = 24;
  std::vector<la::Triplet> t;
  auto id = [nx](std::size_t i, std::size_t j) { return j * nx + i; };
  const double eps = 0.01;
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t r = id(i, j);
      t.push_back({r, r, 2.0 + 2.0 * eps});
      if (i > 0) t.push_back({r, id(i - 1, j), -1.0});
      if (i + 1 < nx) t.push_back({r, id(i + 1, j), -1.0});
      if (j > 0) t.push_back({r, id(i, j - 1), -eps});
      if (j + 1 < ny) t.push_back({r, id(i, j + 1), -eps});
    }
  }
  auto a = la::CsrMatrix::from_triplets(nx * ny, nx * ny, t);
  amg::BoomerAmg solver(a, {});
  std::vector<double> b(nx * ny, 1.0), x(nx * ny, 0.0);
  auto ctx = core::make_seq();
  const std::size_t iters = solver.solve(ctx, b, x, 1e-8, 100);
  EXPECT_LT(iters, 100u);
}

TEST(BoomerAmg, SolvePhaseIsSpmvDominatedOnDevice) {
  auto a = la::poisson2d(24, 24);
  amg::BoomerAmg solver(a, {});
  std::vector<double> b(a.rows(), 1.0), x(a.rows(), 0.0);
  auto gpu = core::make_device();
  gpu.set_phase("amg solve");
  solver.solve(gpu, b, x, 1e-8, 100);
  // Every V-cycle is kernels only: launches recorded, flops > 0.
  EXPECT_GT(gpu.counters().launches, 10u);
  EXPECT_GT(gpu.counters().flops, 0.0);
  EXPECT_GT(gpu.simulated_time(), 0.0);
}

class StructSolverGrid : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StructSolverGrid, SolvesPoissonFast) {
  const std::size_t n = GetParam();  // 2^k - 1 grids
  amg::StructSolver solver(n, n, amg::StructStencil5{});
  EXPECT_GE(solver.num_levels(), 2u);
  std::vector<double> f(n * n, 1.0), u(n * n, 0.0);
  auto ctx = core::make_seq();
  const double r0 = solver.residual_norm(ctx, f, u);
  const std::size_t cycles = solver.solve(ctx, f, u, 1e-9, 60);
  EXPECT_LE(cycles, 15u) << "geometric MG should converge in ~10 cycles";
  EXPECT_LT(solver.residual_norm(ctx, f, u), 1e-8 * r0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StructSolverGrid,
                         ::testing::Values(15, 31, 63));

TEST(StructSolver, MatchesBoomerAmgSolution) {
  const std::size_t n = 15;
  amg::StructSolver pfmg(n, n, amg::StructStencil5{});
  auto a = la::poisson2d(n, n);
  amg::BoomerAmg boomer(a, {});
  std::vector<double> f(n * n), u1(n * n, 0.0), u2(n * n, 0.0);
  core::Rng rng(3);
  for (auto& v : f) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  pfmg.solve(ctx, f, u1, 1e-11, 60);
  boomer.solve(ctx, f, u2, 1e-11, 200);
  // poisson2d's (i + j*nx) and StructSolver's (i*ny + j) produce the same
  // abstract matrix on a square grid, so the flat vectors must agree.
  for (std::size_t k = 0; k < n * n; ++k) EXPECT_NEAR(u1[k], u2[k], 1e-6);
}

TEST(BoxLoop, VisitsExactlyTheBox) {
  auto ctx = core::make_seq();
  std::vector<int> hits(8 * 8, 0);
  amg::Box2 box{2, 5, 3, 7};
  amg::box_loop(ctx, box, {}, [&](std::size_t i, std::size_t j) {
    hits[i * 8 + j] += 1;
  });
  int total = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      const bool inside = i >= 2 && i < 5 && j >= 3 && j < 7;
      EXPECT_EQ(hits[i * 8 + j], inside ? 1 : 0);
      total += hits[i * 8 + j];
    }
  }
  EXPECT_EQ(total, int(box.size()));
}


TEST(BoomerAmg, GpuSetupOptionChargesWork) {
  // The paper's follow-on work: AMG setup on the GPU. With setup_ctx set,
  // hierarchy construction records kernels; without it, setup is silent.
  auto a = la::poisson2d(20, 20);
  auto gpu = core::make_device();
  amg::AmgOptions opts;
  opts.setup_ctx = &gpu;
  amg::BoomerAmg with_setup(a, opts);
  EXPECT_GT(gpu.counters().launches, 0u);
  EXPECT_GT(gpu.simulated_time(), 0.0);

  auto gpu2 = core::make_device();
  amg::BoomerAmg silent(la::poisson2d(20, 20), {});
  EXPECT_EQ(gpu2.counters().launches, 0u);
  // Same numerical hierarchy either way.
  EXPECT_EQ(with_setup.num_levels(), silent.num_levels());
  EXPECT_DOUBLE_EQ(with_setup.operator_complexity(),
                   silent.operator_complexity());
}

}  // namespace
