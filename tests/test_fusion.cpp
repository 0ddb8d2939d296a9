// Kernel-fusion semantics (DESIGN.md section 11): the FusedRegion builder
// runs its stages in order once per index under a single launch charge,
// sums the stage workloads minus the elided intermediate traffic, and --
// because each stage touches only its own index -- leaves results bitwise
// identical to the unfused launches it replaces. The workload adoptions
// (CG, Cardioid) are checked end to end here.
#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

#include "core/coe.hpp"
#include "la/la.hpp"
#include "reaction/monodomain.hpp"

namespace {

using namespace coe;

TEST(Fusion, StagesRunInOrderPerIndex) {
  auto ctx = core::make_seq();
  const std::size_t n = 100;
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<double>(i);
  ctx.fused(n)
      .then({1.0, 8.0}, [&](std::size_t i) { a[i] += 1.0; })
      .then({1.0, 16.0}, [&](std::size_t i) { b[i] = 2.0 * a[i]; })
      .launch();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(b[i], 2.0 * (static_cast<double>(i) + 1.0));
  }
}

TEST(Fusion, OneLaunchSummedWorkloadsElidedBytes) {
  auto ctx = core::make_device(hsim::machines::v100());
  const std::size_t n = 1000;
  std::vector<double> a(n, 1.0);
  ctx.fused(n)
      .then({2.0, 24.0}, [&](std::size_t i) { a[i] += 1.0; })
      .then({1.0, 16.0}, [&](std::size_t i) { a[i] *= 2.0; })
      .elide(8.0)
      .launch();
  EXPECT_EQ(ctx.counters().launches, 1u);
  EXPECT_DOUBLE_EQ(ctx.counters().flops, 3.0 * static_cast<double>(n));
  // 24 + 16 - 8 elided bytes per iteration.
  EXPECT_DOUBLE_EQ(ctx.counters().bytes, 32.0 * static_cast<double>(n));
}

TEST(Fusion, ElideClampsAtZero) {
  auto ctx = core::make_device(hsim::machines::v100());
  std::vector<double> a(10, 0.0);
  ctx.fused(a.size())
      .then({1.0, 8.0}, [&](std::size_t i) { a[i] += 1.0; })
      .elide(1e9)  // more than the stages carry: clamp, don't go negative
      .launch();
  EXPECT_DOUBLE_EQ(ctx.counters().bytes, 0.0);
  EXPECT_GE(ctx.simulated_time(), 0.0);
}

TEST(Fusion, FusedReduceMatchesSeparateLoops) {
  auto ctx = core::make_seq();
  const std::size_t n = 257;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.1 * static_cast<double>(i) + 0.3;
    y[i] = 1.0 / (static_cast<double>(i) + 1.0);
  }
  std::vector<double> xs = x;
  double expect = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] += 2.0 * y[i];
    expect += xs[i] * xs[i];
  }
  const double got = ctx.fused(n)
                         .then({2.0, 24.0},
                               [&](std::size_t i) { x[i] += 2.0 * y[i]; })
                         .reduce_sum({2.0, 16.0}, [&](std::size_t i) {
                           return x[i] * x[i];
                         });
  EXPECT_EQ(got, expect);  // bitwise: same order of operations
  EXPECT_EQ(x, xs);
}

TEST(Fusion, ThreeDimensionalRegionCoversEveryIndexOnce) {
  auto ctx = core::make_seq();
  const std::size_t ni = 3, nj = 4, nk = 5;
  std::vector<int> visits(ni * nj * nk, 0);
  std::vector<double> sum(ni * nj * nk, 0.0);
  ctx.fused3(ni, nj, nk)
      .then({1.0, 4.0},
            [&](std::size_t i, std::size_t j, std::size_t k) {
              ++visits[(i * nj + j) * nk + k];
            })
      .then({1.0, 8.0},
            [&](std::size_t i, std::size_t j, std::size_t k) {
              sum[(i * nj + j) * nk + k] =
                  static_cast<double>(i + 10 * j + 100 * k);
            })
      .launch();
  EXPECT_EQ(ctx.counters().launches, 1u);
  for (std::size_t i = 0; i < ni; ++i) {
    for (std::size_t j = 0; j < nj; ++j) {
      for (std::size_t k = 0; k < nk; ++k) {
        EXPECT_EQ(visits[(i * nj + j) * nk + k], 1);
        EXPECT_EQ(sum[(i * nj + j) * nk + k],
                  static_cast<double>(i + 10 * j + 100 * k));
      }
    }
  }
}

TEST(Fusion, CgFusedBitwiseIdenticalFewerLaunches) {
  // The fused CG iteration must reproduce the unfused solution bit for
  // bit (deterministic Seq backend) while launching strictly less and
  // finishing strictly sooner in simulated time.
  auto a = la::poisson2d(24, 24);
  la::CsrOperator op(a);
  la::JacobiPreconditioner jacobi(a);
  std::vector<double> b(a.rows(), 1.0);

  auto solve = [&](bool fused, std::vector<double>& x) {
    auto ctx = core::make_device(hsim::machines::v100());
    x.assign(a.rows(), 0.0);
    la::SolveOptions opts;
    opts.fused = fused;
    opts.max_iters = 60;
    opts.rel_tol = 1e-10;
    const auto res = la::cg(ctx, op, jacobi, b, x, opts);
    return std::tuple{res.iterations, ctx.counters().launches,
                      ctx.simulated_time()};
  };

  std::vector<double> x_unfused, x_fused;
  const auto [it0, launches0, sim0] = solve(false, x_unfused);
  const auto [it1, launches1, sim1] = solve(true, x_fused);
  EXPECT_EQ(it0, it1);
  EXPECT_EQ(x_unfused, x_fused);  // element-wise bitwise equality
  EXPECT_LT(launches1, launches0);
  EXPECT_LT(sim1, sim0);
}

TEST(Fusion, MonodomainFusedBitwiseIdenticalFewerLaunches) {
  auto run = [&](bool fuse, std::vector<double>& voltages) {
    auto dev = core::make_device(hsim::machines::v100());
    auto host = core::make_seq();
    reaction::TissueConfig cfg;
    cfg.nx = 24;
    cfg.ny = 24;
    cfg.rates = reaction::RateKind::Rational;
    cfg.fuse_reaction = fuse;
    reaction::Monodomain tissue(dev, host, cfg);
    tissue.stimulate(0, 8, 0, 8, 100.0, 1.0);
    tissue.run(2.0);
    voltages.clear();
    for (std::size_t i = 0; i < cfg.nx; ++i) {
      for (std::size_t j = 0; j < cfg.ny; ++j) {
        voltages.push_back(tissue.voltage(i, j));
      }
    }
    return std::pair{dev.counters().launches, dev.simulated_time()};
  };
  std::vector<double> v_unfused, v_fused;
  const auto [launches0, sim0] = run(false, v_unfused);
  const auto [launches1, sim1] = run(true, v_fused);
  EXPECT_EQ(v_unfused, v_fused);
  EXPECT_LT(launches1, launches0);
  EXPECT_LT(sim1, sim0);
}

}  // namespace
