// Edge cases and failure injection: empty inputs, singular systems,
// non-convergence reporting, degenerate configurations. A library a
// downstream user adopts must fail loudly and predictably, not crash.
#include <gtest/gtest.h>

#include <cmath>

#include "amg/amg.hpp"
#include "beamline/fft.hpp"
#include "core/coe.hpp"
#include "kinetics/solver.hpp"
#include "la/la.hpp"
#include "ode/ode.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace coe;

TEST(EdgeCase, EmptyForallAndReduction) {
  auto ctx = core::make_device();
  ctx.forall(0, {1.0, 8.0}, [](std::size_t) { FAIL() << "body ran"; });
  EXPECT_EQ(ctx.counters().launches, 1u);  // launch still counted
  EXPECT_DOUBLE_EQ(ctx.counters().flops, 0.0);
  EXPECT_DOUBLE_EQ(
      ctx.reduce_sum(0, {}, [](std::size_t) { return 1.0; }), 0.0);
}

TEST(EdgeCase, BufferOfZeroElements) {
  auto ctx = core::make_device();
  core::Buffer<double> buf(ctx, 0);
  EXPECT_EQ(buf.size(), 0u);
  (void)buf.device_read();
  (void)buf.host_read();
  EXPECT_EQ(ctx.counters().transfers, 0u);
}

TEST(EdgeCase, PoolHandlesNullAndHugeClasses) {
  core::MemoryPool pool;
  pool.deallocate(nullptr, 100);  // no-op
  void* p = pool.allocate(std::size_t{1} << 26);  // 64 MiB class
  ASSERT_NE(p, nullptr);
  pool.deallocate(p, std::size_t{1} << 26);
  EXPECT_EQ(pool.stats().current_bytes, 0u);
  pool.release();
  EXPECT_EQ(pool.stats().backing_allocs, 1u);
}

TEST(EdgeCase, SingularLuReportsNotOk) {
  la::DenseMatrix a(4, 4);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // rank 2 of 4
  la::LuFactor lu(a);
  EXPECT_FALSE(lu.ok());
}

TEST(EdgeCase, CgReportsNonConvergenceHonestly) {
  // An indefinite matrix breaks CG's assumptions: the result must say
  // converged = false rather than pretending.
  auto a = la::CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {1, 1, -1.0}});
  std::vector<double> b{1.0, 1.0}, x(2, 0.0);
  auto ctx = core::make_seq();
  la::CsrOperator op(a);
  la::IdentityPreconditioner id;
  auto res = la::cg(ctx, op, id, b, x, {.max_iters = 3, .rel_tol = 1e-14});
  // Either it solved the (diagonal) system exactly or reported failure;
  // it must not report convergence with a bad residual.
  if (res.converged) {
    std::vector<double> r(2);
    a.spmv(ctx, x, r);
    EXPECT_NEAR(r[0], 1.0, 1e-10);
    EXPECT_NEAR(r[1], 1.0, 1e-10);
  }
}

TEST(EdgeCase, GmresOnIdentityConvergesImmediately) {
  auto a = la::CsrMatrix::from_triplets(3, 3, {{0, 0, 1.0},
                                               {1, 1, 1.0},
                                               {2, 2, 1.0}});
  std::vector<double> b{1.0, 2.0, 3.0}, x(3, 0.0);
  auto ctx = core::make_seq();
  la::CsrOperator op(a);
  la::IdentityPreconditioner id;
  auto res =
      la::gmres(ctx, op, id, b, x, 5, {.max_iters = 50, .rel_tol = 1e-12});
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 2u);
  EXPECT_NEAR(x[2], 3.0, 1e-10);
}

TEST(EdgeCase, AmgOnDiagonalMatrix) {
  // No strong connections anywhere: coarsening stalls gracefully and the
  // "hierarchy" is a single level with a direct solve.
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < 32; ++i) t.push_back({i, i, 2.0 + double(i)});
  auto a = la::CsrMatrix::from_triplets(32, 32, t);
  amg::BoomerAmg solver(a, {});
  EXPECT_EQ(solver.num_levels(), 1u);
  std::vector<double> b(32, 1.0), x(32, 0.0);
  auto ctx = core::make_seq();
  solver.solve(ctx, b, x, 1e-12, 10);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(x[i], 1.0 / (2.0 + double(i)), 1e-10);
  }
}

TEST(EdgeCase, FftSizeOneAndTwo) {
  auto ctx = core::make_seq();
  std::vector<beamline::cplx> one{beamline::cplx(3.0, -1.0)};
  beamline::fft(ctx, one, false);
  EXPECT_DOUBLE_EQ(one[0].real(), 3.0);
  std::vector<beamline::cplx> two{beamline::cplx(1.0, 0.0),
                                  beamline::cplx(2.0, 0.0)};
  beamline::fft(ctx, two, false);
  EXPECT_NEAR(two[0].real(), 3.0, 1e-14);
  EXPECT_NEAR(two[1].real(), -1.0, 1e-14);
}

TEST(EdgeCase, SchedulerEmptyAndSingleJob) {
  sched::Simulator sim({4, sched::Policy::Sjf, 0.0, 0});
  auto empty = sim.run({});
  EXPECT_EQ(empty.completed, 0u);
  EXPECT_DOUBLE_EQ(empty.makespan, 0.0);
  auto one = sim.run({sched::Job{0, 5.0, 2.0, 2.0, 1}});
  EXPECT_EQ(one.completed, 1u);
  EXPECT_DOUBLE_EQ(one.makespan, 7.0);  // waits for its own arrival
  EXPECT_DOUBLE_EQ(one.mean_wait, 0.0);
}

TEST(EdgeCase, BdfZeroLengthIntervalIsIdentity) {
  auto ctx = core::make_seq();
  struct Zero final : ode::OdeRhs {
    void eval(double, const ode::NVector&, ode::NVector& ydot) override {
      ydot.fill(0.0);
    }
  } rhs;
  ode::NVector y(ctx, 3, 2.5);
  ode::Bdf bdf;
  auto stats = bdf.integrate(rhs, nullptr, 1.0, 1.0, y);
  EXPECT_EQ(stats.steps, 0u);
  EXPECT_DOUBLE_EQ(y.data()[0], 2.5);
}

TEST(EdgeCase, KineticsTwoLevelAnalytic) {
  // A 2-level collisional-only system has the closed-form Boltzmann
  // steady state; the solver must hit it exactly.
  kinetics::AtomicModel m;
  m.energy = {0.0, 0.5};
  m.weight = {2.0, 8.0};
  m.transitions.push_back({0, 1, 0.3, false});
  kinetics::Zone z{0.7, 1.3};
  auto pops = kinetics::solve_zone(m, z, kinetics::SolveMethod::DenseDirect);
  const double ratio = (m.weight[1] / m.weight[0]) * std::exp(-0.5 / z.te);
  EXPECT_NEAR(pops[1] / pops[0], ratio, 1e-10);
  EXPECT_NEAR(pops[0] + pops[1], 1.0, 1e-12);
}

TEST(EdgeCase, TimelineEmptyReport) {
  hsim::Timeline t;
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
  const auto s = t.report("empty");
  EXPECT_NE(s.find("total"), std::string::npos);
}

TEST(EdgeCase, UnifiedBufferSmallerThanOnePage) {
  auto ctx = core::make_device();
  core::UnifiedBuffer<double> buf(ctx, 16);  // 128 B << 64 KiB
  EXPECT_EQ(buf.pages(), 1u);
  buf.device_touch(0, 16);
  EXPECT_EQ(ctx.counters().transfers, 1u);
  buf.device_touch(4, 8);  // same page: free
  EXPECT_EQ(ctx.counters().transfers, 1u);
}

}  // namespace
