// Tests for coe::prof: critical-path extraction on hand-built DAGs with
// known answers, the fuzz property tying the extracted path length to the
// simulated clock on random stream programs, the RAII span tree, and the
// exporters (coe-prof-v1 JSON, Chrome flow events, phase percentages).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/coe.hpp"
#include "obs/obs.hpp"
#include "prof/prof.hpp"

namespace {

using namespace coe;

// GCC 12 at -O3 reports a false -Wrestrict overlap in the inlined
// std::string assignments below (GCC bug 105329).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
obs::TraceEvent kernel(double t0, double d, int stream,
                       const std::string& phase = "main") {
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::Kernel;
  e.bound = obs::TraceEvent::Bound::Memory;
  e.backend = "device";
  e.phase = phase;
  e.label = "k";
  e.t_start = t0;
  e.duration = d;
  e.stream = stream;
  return e;
}
#pragma GCC diagnostic pop

obs::TraceEvent wait_marker(double t, int stream, std::int64_t dep) {
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::EventWait;
  e.backend = "device";
  e.t_start = t;
  e.duration = 0.0;
  e.stream = stream;
  e.dep = dep;
  return e;
}

// ---------------------------------------------------------------------------
// Hand-built DAGs with closed-form answers.

TEST(CriticalPath, SingleStreamEqualsSumOfDurations) {
  obs::TraceBuffer buf;
  buf.set_source("toy", 0.0);
  double t = 0.0;
  for (int i = 0; i < 5; ++i) {
    buf.push(kernel(t, 0.25, 0));
    t += 0.25;
  }
  const prof::DagProfile p = prof::analyze(buf);
  EXPECT_NEAR(p.critical_s, 1.25, 1e-12);
  EXPECT_NEAR(p.coverage, 1.0, 1e-12);
  ASSERT_EQ(p.critical_path.size(), 5u);
  EXPECT_EQ(p.critical_path.front().via, prof::EdgeKind::Root);
  for (std::size_t i = 1; i < p.critical_path.size(); ++i) {
    EXPECT_EQ(p.critical_path[i].via, prof::EdgeKind::ProgramOrder);
  }
  EXPECT_NEAR(p.overlap_efficiency, 1.0, 1e-12);
}

TEST(CriticalPath, TwoOverlappedStreamsEqualsMax) {
  // Stream 0 runs 1.0 s of work, stream 1 runs 0.6 s, fully overlapped.
  obs::TraceBuffer buf;
  buf.set_source("toy", 0.0);
  buf.push(kernel(0.0, 0.5, 0));
  buf.push(kernel(0.0, 0.6, 1));
  buf.push(kernel(0.5, 0.5, 0));
  const prof::DagProfile p = prof::analyze(buf);
  EXPECT_NEAR(p.critical_s, 1.0, 1e-12);  // max, not 1.6 (the sum)
  EXPECT_NEAR(p.busy_s, 1.6, 1e-12);
  EXPECT_NEAR(p.overlap_efficiency, 1.6, 1e-12);
  // The path runs down stream 0; stream 1 never binds it.
  for (const auto& step : p.critical_path) {
    EXPECT_EQ(p.events[step.event].stream, 0);
  }
  ASSERT_EQ(p.streams.size(), 2u);
  EXPECT_NEAR(p.streams[0].utilization, 1.0, 1e-12);
  EXPECT_NEAR(p.streams[1].utilization, 0.6, 1e-12);
}

TEST(CriticalPath, ForkJoinPicksLongerBranch) {
  // Fork: a 0.2 s root on stream 0, then branches on streams 0 (long,
  // 0.8 s) and 1 (short, 0.3 s). Join: stream 1 waits on the long branch
  // (wait marker + payload starting at its end). The path must be
  // root -> long branch -> join, 0.2 + 0.8 + 0.4 = 1.4 s.
  obs::TraceBuffer buf;
  buf.set_source("toy", 0.0);
  buf.push(kernel(0.0, 0.2, 0));
  buf.push(kernel(0.2, 0.8, 0));   // long branch
  buf.push(kernel(0.2, 0.3, 1));   // short branch
  buf.push(wait_marker(1.0, 1, 7));
  buf.push(kernel(1.0, 0.4, 1));   // join, bound by the long branch
  const prof::DagProfile p = prof::analyze(buf);
  EXPECT_NEAR(p.critical_s, 1.4, 1e-12);
  EXPECT_NEAR(p.coverage, 1.0, 1e-12);
  ASSERT_EQ(p.critical_path.size(), 3u);
  EXPECT_EQ(p.critical_path[0].event, 0u);
  EXPECT_EQ(p.critical_path[1].event, 1u);  // the 0.8 s branch, not the 0.3 s
  // Markers are excluded from the analysis event list, so the join kernel
  // (5th pushed) is events[3].
  EXPECT_EQ(p.critical_path[2].event, 3u);
  EXPECT_EQ(p.critical_path[2].via, prof::EdgeKind::EventWait);
  EXPECT_NEAR(p.edge_seconds[static_cast<int>(prof::EdgeKind::EventWait)],
              0.4, 1e-12);
}

TEST(CriticalPath, CrossStreamContentionClassifiedAsSlot) {
  // Two streams, one execution slot: stream 1's kernel can only start when
  // stream 0's finishes. No wait marker exists, so the binding edge is
  // resource contention (KernelSlot), not a dependency.
  obs::TraceBuffer buf;
  buf.set_source("toy", 0.0);
  buf.push(kernel(0.0, 0.5, 0));
  buf.push(kernel(0.5, 0.5, 1));
  const prof::DagProfile p = prof::analyze(buf);
  EXPECT_NEAR(p.critical_s, 1.0, 1e-12);
  ASSERT_EQ(p.critical_path.size(), 2u);
  EXPECT_EQ(p.critical_path[1].via, prof::EdgeKind::KernelSlot);
}

TEST(CriticalPath, MarkersCarryNoTimelineWeight) {
  obs::TraceBuffer buf;
  buf.set_source("toy", 0.0);
  buf.push(kernel(0.0, 1.0, 0));
  obs::TraceEvent sync;
  sync.kind = obs::TraceEvent::Kind::Sync;
  sync.t_start = 1.0;
  sync.stream = 0;
  buf.push(sync);
  const prof::DagProfile p = prof::analyze(buf);
  EXPECT_EQ(p.events.size(), 1u);  // the marker is excluded
  EXPECT_NEAR(p.critical_s, 1.0, 1e-12);
  EXPECT_NEAR(p.busy_s, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Per-phase attribution invariants.

TEST(PhaseProfile, PercentagesSumToHundredAndPartitionBusy) {
  auto ctx = core::make_device(hsim::machines::v100());
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  std::vector<double> x(1 << 16, 1.0);
  ctx.set_phase("a");
  ctx.forall(x.size(), hsim::Workload{2.0, 16.0},
             [&](std::size_t i) { x[i] += 1.0; });
  ctx.record_transfer(1e6, true);
  ctx.set_phase("b");
  // Heavy enough that roofline flop time dwarfs the launch overhead.
  ctx.forall(x.size(), hsim::Workload{4000.0, 8.0},
             [&](std::size_t i) { x[i] *= 1.0001; });
  const prof::DagProfile p = prof::analyze(buf);
  ASSERT_GE(p.phases.size(), 2u);
  double busy_sum = 0.0;
  for (const auto& ph : p.phases) {
    const double parts =
        ph.compute_s + ph.memory_s + ph.launch_s + ph.transfer_s;
    EXPECT_NEAR(parts, ph.busy_s, 1e-12 * std::max(1.0, ph.busy_s))
        << ph.name;
    busy_sum += ph.busy_s;
    if (ph.total_s() > 0.0) {
      const double pct = 100.0 * (parts + ph.stall_s) / ph.total_s();
      EXPECT_NEAR(pct, 100.0, 1e-9) << ph.name;
    }
  }
  EXPECT_NEAR(busy_sum, p.busy_s, 1e-12 * std::max(1.0, p.busy_s));
  const prof::PhaseProfile* a = p.phase("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kernels, 1u);
  EXPECT_EQ(a->transfers, 1u);
  EXPECT_GT(a->transfer_s, 0.0);
  const prof::PhaseProfile* b = p.phase("b");
  ASSERT_NE(b, nullptr);
  // Workload{64 flops, 8 bytes} on a V100 is far past the ridge point.
  EXPECT_EQ(b->bound(), prof::Category::Compute);
}

// ---------------------------------------------------------------------------
// Fuzz property: on any random stream program the extracted critical path
// tiles the window exactly, so its length equals the simulated makespan.

TEST(CriticalPath, FuzzMatchesSimulatedTime) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    core::Rng rng(seed * 0x51ed2701);
    auto ctx = core::make_device(hsim::machines::v100());
    obs::TraceBuffer buf(1 << 12);
    ctx.set_trace(&buf);
    std::vector<double> x(1 << 12, 0.0);
    core::ExecContext::StreamEvent last_event{};
    bool have_event = false;
    const int ops = 40 + static_cast<int>(rng.uniform() * 40);
    for (int op = 0; op < ops; ++op) {
      ctx.stream(static_cast<std::size_t>(rng.uniform() * 4));
      const double r = rng.uniform();
      if (r < 0.45) {
        const std::size_t n = 64 + static_cast<std::size_t>(
                                       rng.uniform() * (x.size() - 64));
        ctx.forall(n, hsim::Workload{1.0 + 60.0 * rng.uniform(), 16.0},
                   [&](std::size_t i) { x[i] += 1.0; });
      } else if (r < 0.65) {
        ctx.record_transfer(1e3 + 1e6 * rng.uniform(), rng.uniform() < 0.5);
      } else if (r < 0.78) {
        last_event = ctx.record_event();
        have_event = true;
      } else if (r < 0.92) {
        if (have_event) ctx.wait_event(last_event);
      } else {
        ctx.sync();
      }
    }
    ctx.sync();
    ASSERT_EQ(buf.dropped(), 0u) << "seed " << seed;
    const prof::DagProfile p = prof::analyze(buf);
    const double makespan = ctx.simulated_time();
    EXPECT_NEAR(p.critical_s, makespan,
                1e-9 * std::max(1.0, std::fabs(makespan)))
        << "seed " << seed;
    EXPECT_NEAR(p.coverage, 1.0, 1e-9) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// RAII spans.

TEST(Spans, NullProfilerIsANoOp) {
  auto ctx = core::make_device(hsim::machines::v100());
  ctx.set_phase("outer");
  {
    prof::Scope s(nullptr, &ctx, "region");
    EXPECT_EQ(ctx.phase(), "outer");  // phase untouched
  }
  EXPECT_EQ(ctx.phase(), "outer");
}

TEST(Spans, TreeNestsAndRestoresPhase) {
  prof::Profiler prof;
  auto ctx = core::make_device(hsim::machines::v100());
  ctx.set_phase("pre");
  std::vector<double> x(4096, 0.0);
  {
    prof::Scope outer(&prof, &ctx, "step");
    EXPECT_EQ(ctx.phase(), "step");
    {
      prof::Scope inner(&prof, &ctx, "kernels");
      EXPECT_EQ(ctx.phase(), "step/kernels");
      ctx.forall(x.size(), hsim::Workload{2.0, 16.0},
                 [&](std::size_t i) { x[i] += 1.0; });
    }
    EXPECT_EQ(ctx.phase(), "step");
    {
      prof::Scope again(&prof, &ctx, "kernels");
      ctx.forall(x.size(), hsim::Workload{2.0, 16.0},
                 [&](std::size_t i) { x[i] += 1.0; });
    }
  }
  EXPECT_EQ(ctx.phase(), "pre");
  ASSERT_EQ(prof.root().children.size(), 1u);
  const prof::Profiler::Node& step = *prof.root().children[0];
  EXPECT_EQ(step.name, "step");
  EXPECT_EQ(step.calls, 1u);
  ASSERT_EQ(step.children.size(), 1u);
  const prof::Profiler::Node& kernels = *step.children[0];
  EXPECT_EQ(kernels.calls, 2u);
  EXPECT_GT(kernels.sim_s, 0.0);
  EXPECT_LE(kernels.sim_s, step.sim_s + 1e-15);
  EXPECT_FALSE(prof.empty());
  // The report renders without blowing up and mentions both regions.
  const std::string rep = prof.report("t");
  EXPECT_NE(rep.find("step"), std::string::npos);
  EXPECT_NE(rep.find("kernels"), std::string::npos);
}

TEST(Spans, NullContextCapturesWallOnly) {
  prof::Profiler prof;
  {
    prof::Scope s(&prof, nullptr, "host_stage");
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  }
  ASSERT_EQ(prof.root().children.size(), 1u);
  EXPECT_GE(prof.root().children[0]->wall_s, 0.0);
  EXPECT_EQ(prof.root().children[0]->sim_s, 0.0);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(Exporters, ProfileJsonRoundTripsThroughParser) {
  auto ctx = core::make_device(hsim::machines::v100());
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  std::vector<double> x(4096, 0.0);
  ctx.set_phase("solve");
  ctx.forall(x.size(), hsim::Workload{2.0, 16.0},
             [&](std::size_t i) { x[i] += 1.0; });
  const prof::DagProfile p = prof::analyze(buf);
  prof::Profiler spans;
  { prof::Scope s(&spans, &ctx, "solve"); }
  const obs::Json j = prof::profile_json(p, &spans, "unit");
  const obs::Json back = obs::Json::parse(j.dump());
  EXPECT_EQ(back.at("schema").as_string(), "coe-prof-v1");
  EXPECT_EQ(back.at("name").as_string(), "unit");
  EXPECT_EQ(back.at("machine").as_string(), "V100 (Volta)");
  EXPECT_NEAR(back.at("critical_s").as_number(), p.critical_s, 0.0);
  EXPECT_TRUE(back.at("spans").is_array());
  double pct_sum = 0.0;
  const obs::Json& ph = back.at("phases").items().at(0);
  for (const char* k :
       {"compute", "memory", "launch", "transfer", "dependency_stall"}) {
    pct_sum += ph.at("pct").at(k).as_number();
  }
  EXPECT_NEAR(pct_sum, 100.0, 1e-9);
}

TEST(Exporters, FlowEventsLinkConsecutiveCriticalSteps) {
  obs::TraceBuffer buf;
  buf.set_source("toy", 0.0);
  buf.push(kernel(0.0, 0.5, 0));
  buf.push(kernel(0.5, 0.5, 1));
  const prof::DagProfile p = prof::analyze(buf);
  const std::vector<std::string> flow = prof::critical_path_flow_events(p);
  // One s->f pair for the single link between the two steps.
  ASSERT_EQ(flow.size(), 2u);
  EXPECT_NE(flow[0].find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(flow[1].find("\"ph\":\"f\""), std::string::npos);
  // The decorated trace still parses back (the parser skips flow events).
  std::ostringstream os;
  obs::write_chrome_trace(os, buf, &flow);
  const obs::TraceBuffer back = obs::parse_chrome_trace(os.str());
  EXPECT_EQ(back.size(), buf.size());
  EXPECT_EQ(back.source(), "toy");
}

TEST(Exporters, AnalyzeSurvivesChromeTraceRoundTrip) {
  auto ctx = core::make_device(hsim::machines::v100());
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  std::vector<double> x(1 << 14, 0.0);
  for (int s = 0; s < 3; ++s) {
    ctx.stream(static_cast<std::size_t>(s));
    ctx.forall(x.size(), hsim::Workload{4.0, 24.0},
               [&](std::size_t i) { x[i] += 1.0; });
  }
  ctx.sync();
  std::ostringstream os;
  obs::write_chrome_trace(os, buf);
  const obs::TraceBuffer back = obs::parse_chrome_trace(os.str());
  const prof::DagProfile a = prof::analyze(buf);
  const prof::DagProfile b = prof::analyze(back);
  EXPECT_NEAR(a.critical_s, b.critical_s,
              1e-9 * std::max(1.0, a.critical_s));
  EXPECT_EQ(a.critical_path.size(), b.critical_path.size());
  EXPECT_EQ(a.streams.size(), b.streams.size());
  EXPECT_EQ(b.machine, "V100 (Volta)");
}

TEST(Exporters, BottleneckReportStatesABoundPerPhase) {
  auto ctx = core::make_device(hsim::machines::v100());
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  std::vector<double> x(1 << 20, 0.0);
  ctx.set_phase("bw");
  // 64 B/element over 1M elements: byte time far past the launch overhead.
  ctx.forall(x.size(), hsim::Workload{1.0, 64.0},
             [&](std::size_t i) { x[i] += 1.0; });
  const prof::DagProfile p = prof::analyze(buf);
  const std::string rep = prof::bottleneck_report(p, "unit");
  EXPECT_NE(rep.find("critical path"), std::string::npos);
  EXPECT_NE(rep.find("bw"), std::string::npos);
  EXPECT_NE(rep.find("memory"), std::string::npos);  // the stated bound
}

}  // namespace
