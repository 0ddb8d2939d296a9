// Unit tests for the portability layer, machine models, buffers and pools.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/coe.hpp"

namespace {

using namespace coe;

TEST(MachineModel, CatalogSanity) {
  const auto v100 = hsim::machines::v100();
  const auto p9 = hsim::machines::power9();
  EXPECT_GT(v100.flops(), p9.flops());
  EXPECT_GT(v100.bandwidth(), p9.bandwidth());
  EXPECT_GT(v100.launch_overhead, 0.0);
  EXPECT_EQ(p9.launch_overhead, 0.0);
  EXPECT_GT(v100.ridge(), 0.0);
}

TEST(MachineModel, VoltaBeatsPascal) {
  const auto v = hsim::machines::v100();
  const auto p = hsim::machines::p100();
  EXPECT_GT(v.flops(), p.flops());
  EXPECT_GT(v.bandwidth(), p.bandwidth());
  EXPECT_GT(v.link_bw, p.link_bw);  // NVLink2 vs NVLink1
}

TEST(CostModel, RooflineRegimes) {
  hsim::CostModel cm(hsim::machines::v100());
  // Memory-bound: 0.1 flop/byte, far below the ridge.
  hsim::KernelCost mem{1e8, 1e9};
  EXPECT_NEAR(cm.kernel_time(mem),
              cm.machine().launch_overhead + 1e9 / cm.machine().bandwidth(),
              1e-12);
  // Compute-bound: 100 flop/byte.
  hsim::KernelCost cpu{1e12, 1e10};
  EXPECT_NEAR(cm.kernel_time(cpu),
              cm.machine().launch_overhead + 1e12 / cm.machine().flops(),
              1e-9);
}

TEST(CostModel, TransferIsLatencyPlusBandwidth) {
  hsim::CostModel cm(hsim::machines::v100());
  const double t1 = cm.transfer_time(0);
  const double t2 = cm.transfer_time(75e9);  // one second worth at link bw
  EXPECT_NEAR(t1, cm.machine().link_latency, 1e-15);
  EXPECT_NEAR(t2 - t1, 1.0, 1e-9);
}

TEST(ClusterModel, CollectiveScaling) {
  const auto net = hsim::clusters::sierra(1024);
  EXPECT_EQ(net.allreduce(1 << 20, 1), 0.0);
  // Allreduce grows ~log in latency; more ranks is never cheaper than 2.
  EXPECT_GT(net.allreduce(1 << 20, 1024), net.allreduce(1 << 20, 2));
  // Gather to one is linear in total data.
  EXPECT_GT(net.gather(1 << 20, 64), net.gather(1 << 20, 8));
}

TEST(Exec, ForallComputesAndCounts) {
  auto ctx = core::make_device();
  std::vector<double> x(1000, 2.0), y(1000, 1.0);
  ctx.forall(1000, {2.0, 24.0}, [&](std::size_t i) { y[i] += 3.0 * x[i]; });
  for (double v : y) EXPECT_DOUBLE_EQ(v, 7.0);
  EXPECT_EQ(ctx.counters().launches, 1u);
  EXPECT_DOUBLE_EQ(ctx.counters().flops, 2000.0);
  EXPECT_DOUBLE_EQ(ctx.counters().bytes, 24000.0);
  EXPECT_GT(ctx.simulated_time(), 0.0);
}

TEST(Exec, Forall3CoversAllIndices) {
  auto ctx = core::make_seq();
  std::vector<int> hits(3 * 4 * 5, 0);
  core::View3D<int> v(hits.data(), 3, 4, 5);
  ctx.forall3(3, 4, 5, {}, [&](std::size_t i, std::size_t j, std::size_t k) {
    v(i, j, k) += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Exec, ReduceSumMatchesSerial) {
  for (const auto b : {core::Backend::Seq, core::Backend::Device}) {
    core::ExecContext ctx(b);
    const std::size_t n = 100000;
    const double got = ctx.reduce_sum(n, {}, [](std::size_t i) {
      return static_cast<double>(i);
    });
    EXPECT_DOUBLE_EQ(got, double(n) * double(n - 1) / 2.0);
  }
}

TEST(Exec, TimelinePhases) {
  auto ctx = core::make_device();
  ctx.set_phase("setup");
  ctx.forall(10, {1.0, 8.0}, [](std::size_t) {});
  ctx.set_phase("solve");
  ctx.forall(10, {1.0, 8.0}, [](std::size_t) {});
  ctx.forall(10, {1.0, 8.0}, [](std::size_t) {});
  ASSERT_EQ(ctx.timeline().phases().size(), 2u);
  EXPECT_EQ(ctx.timeline().phases()[0].name, "setup");
  EXPECT_EQ(ctx.timeline().phases()[1].counters.launches, 2u);
  EXPECT_NEAR(ctx.timeline().total(), ctx.simulated_time(), 1e-12);
}

TEST(Exec, TimelinePhasesCarryTransferDeltas) {
  // Regression: record_transfer used to hand the timeline an empty
  // Counters{}, so per-phase reports silently dropped transfer counts and
  // h2d/d2h bytes.
  auto ctx = core::make_device();
  ctx.set_phase("stage_in");
  ctx.record_transfer(1000.0, true);
  ctx.record_transfer(500.0, true);
  ctx.set_phase("stage_out");
  ctx.record_transfer(250.0, false);
  ASSERT_EQ(ctx.timeline().phases().size(), 2u);
  const auto& in = ctx.timeline().phases()[0];
  const auto& out = ctx.timeline().phases()[1];
  EXPECT_EQ(in.counters.transfers, 2u);
  EXPECT_DOUBLE_EQ(in.counters.h2d_bytes, 1500.0);
  EXPECT_DOUBLE_EQ(in.counters.d2h_bytes, 0.0);
  EXPECT_EQ(out.counters.transfers, 1u);
  EXPECT_DOUBLE_EQ(out.counters.d2h_bytes, 250.0);
  // The per-phase deltas add up to the context-wide counters, and the
  // report prints the transfer columns.
  EXPECT_EQ(in.counters.transfers + out.counters.transfers,
            ctx.counters().transfers);
  const std::string rep = ctx.timeline().report("t");
  EXPECT_NE(rep.find("xfers"), std::string::npos);
  EXPECT_NE(rep.find("GB xfer"), std::string::npos);
}

TEST(Exec, ResetZeroesShadowAccumulators) {
  // Regression: reset() cleared counters and the clock but left shadow
  // machines' accumulated times, so shadow_time() reported stale totals.
  auto ctx = core::make_device();
  const auto shadow = ctx.add_shadow(hsim::machines::power9());
  ctx.forall(1000, {2.0, 16.0}, [](std::size_t) {});
  ctx.record_transfer(1e6, true);
  EXPECT_GT(ctx.shadow_time(shadow), 0.0);
  ctx.reset();
  EXPECT_DOUBLE_EQ(ctx.shadow_time(shadow), 0.0);
  EXPECT_DOUBLE_EQ(ctx.simulated_time(), 0.0);
  // The shadow keeps pricing after the reset.
  ctx.forall(1000, {2.0, 16.0}, [](std::size_t) {});
  EXPECT_GT(ctx.shadow_time(shadow), 0.0);
}

TEST(CostModel, AggregatePredictIsLowerBoundOnMixedWork) {
  // predict() maxes the roofline over *aggregate* totals, so on a workload
  // mixing compute- and memory-bound launches it under-prices the run;
  // per-launch accounting (sim_time, or reprice over a trace) is
  // authoritative. Equality holds when every launch sits on the same side
  // of the ridge.
  auto ctx = core::make_device(hsim::machines::v100());
  ctx.record_kernel({1e12, 1e6});  // strongly compute-bound
  ctx.record_kernel({1e6, 1e9});   // strongly memory-bound
  const hsim::CostModel same(hsim::machines::v100());
  const double agg = same.predict(ctx.counters());
  EXPECT_LT(agg, ctx.simulated_time());

  // Same-regime launches: the aggregate agrees with per-launch.
  auto uniform = core::make_device(hsim::machines::v100());
  uniform.record_kernel({1e12, 1e6});
  uniform.record_kernel({2e12, 1e6});
  EXPECT_NEAR(same.predict(uniform.counters()), uniform.simulated_time(),
              1e-12);
}

TEST(Exec, EmptyReductionsReturnIdentities) {
  for (const auto b : {core::Backend::Seq, core::Backend::Device}) {
    core::ExecContext ctx(b);
    const double sum =
        ctx.reduce_sum(0, {}, [](std::size_t) { return 1.0; });
    EXPECT_DOUBLE_EQ(sum, 0.0);
    const double mx =
        ctx.reduce_max(0, {}, [](std::size_t) { return 1.0; });
    EXPECT_DOUBLE_EQ(mx, -1.7976931348623157e308);
  }
}

TEST(Buffer, TransfersOnlyWhenStale) {
  auto ctx = core::make_device();
  core::Buffer<double> buf(ctx, 1000);
  EXPECT_EQ(ctx.counters().transfers, 0u);
  (void)buf.device_read();  // fresh everywhere: no transfer
  EXPECT_EQ(ctx.counters().transfers, 0u);
  auto h = buf.host_write();
  h[0] = 42.0;
  (void)buf.device_read();  // host newer: h2d
  EXPECT_EQ(ctx.counters().transfers, 1u);
  EXPECT_DOUBLE_EQ(ctx.counters().h2d_bytes, 8000.0);
  (void)buf.device_read();  // already synced
  EXPECT_EQ(ctx.counters().transfers, 1u);
  (void)buf.device_write();
  auto hr = buf.host_read();  // device newer: d2h
  EXPECT_EQ(ctx.counters().transfers, 2u);
  EXPECT_DOUBLE_EQ(hr[0], 42.0);
}

TEST(UnifiedBuffer, MigratesIn64KPages) {
  auto ctx = core::make_device();
  // 64Ki doubles = 512 KiB = 8 pages.
  core::UnifiedBuffer<double> buf(ctx, 64 * 1024);
  EXPECT_EQ(buf.pages(), 8u);
  buf.device_touch(0, buf.size());
  EXPECT_EQ(ctx.counters().transfers, 8u);
  EXPECT_DOUBLE_EQ(ctx.counters().h2d_bytes, 8.0 * 64 * 1024);
  // Touching one element from the host migrates exactly one page back.
  buf.host_touch(0, 1);
  EXPECT_EQ(ctx.counters().transfers, 9u);
  // Re-touching from the host is free.
  buf.host_touch(0, 1);
  EXPECT_EQ(ctx.counters().transfers, 9u);
}

TEST(MemoryPool, ReusesFreedBlocks) {
  core::MemoryPool pool;
  void* a = pool.allocate(1000);
  pool.deallocate(a, 1000);
  void* b = pool.allocate(900);  // same 1024-byte size class
  EXPECT_EQ(a, b);
  pool.deallocate(b, 900);
  EXPECT_EQ(pool.stats().backing_allocs, 1u);
  EXPECT_EQ(pool.stats().reuse_count, 1u);
  EXPECT_EQ(pool.stats().current_bytes, 0u);
  EXPECT_EQ(pool.stats().highwater_bytes, 1024u);
}

TEST(MemoryPool, PoolArrayConstructsAndDestroys) {
  core::MemoryPool pool;
  {
    core::PoolArray<double> arr(pool, 100);
    for (std::size_t i = 0; i < arr.size(); ++i) arr[i] = double(i);
    EXPECT_DOUBLE_EQ(arr[99], 99.0);
  }
  EXPECT_EQ(pool.stats().current_bytes, 0u);
}

TEST(Rng, Deterministic) {
  core::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformMoments) {
  core::Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 5e-3);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 5e-3);
}

TEST(Rng, NormalMoments) {
  core::Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 1e-2);
  EXPECT_NEAR(sum2 / n, 1.0, 2e-2);
}

TEST(Rng, GammaMean) {
  core::Rng rng(13);
  const double shape = 3.0, scale = 2.0;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.gamma(shape, scale);
  EXPECT_NEAR(sum / n, shape * scale, 0.1);
}

TEST(Table, FormatsAligned) {
  core::Table t({"name", "value"});
  t.row({"alpha", core::Table::num(1.5, 2)});
  t.row({"b", "x"});
  const std::string s = t.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

}  // namespace
