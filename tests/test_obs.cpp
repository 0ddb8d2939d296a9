// Tests for coe::obs: the trace ring buffer and its ExecContext hook, the
// Chrome trace exporter, the metrics registry and its subsystem
// publishers, and the dependency-free JSON layer everything round-trips
// through.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/coe.hpp"
#include "mpi/comm.hpp"
#include "obs/obs.hpp"
#include "resil/resil.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace coe;

obs::TraceEvent kernel_event(const std::string& label, double t0, double d) {
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::Kernel;
  e.bound = obs::TraceEvent::Bound::Compute;
  e.backend = "seq";
  e.phase = "main";
  e.label = label;
  e.t_start = t0;
  e.duration = d;
  return e;
}

TEST(TraceBuffer, RingOverwritesOldestAndCountsDrops) {
  obs::TraceBuffer buf(4);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.capacity(), 4u);
  // GCC 12 at -O3 reports a false -Wrestrict overlap in `"e" + string`
  // (GCC bug 105329).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
  for (int i = 0; i < 6; ++i) {
    buf.push(kernel_event("e" + std::to_string(i), i, 0.5));
  }
#pragma GCC diagnostic pop
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 2u);
  const auto snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest two were overwritten; the rest come out in chronological order.
  EXPECT_EQ(snap.front().label, "e2");
  EXPECT_EQ(snap.back().label, "e5");
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LE(snap[i - 1].t_start, snap[i].t_start);
  }
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(ExecTracing, DisabledCostsNothingAndRecordsNothing) {
  auto ctx = core::make_device();
  EXPECT_EQ(ctx.trace(), nullptr);
  ctx.forall(100, {2.0, 8.0}, [](std::size_t) {});
  ctx.record_transfer(1e6, true);
  EXPECT_EQ(ctx.counters().launches, 1u);  // counters still work untraced
}

TEST(ExecTracing, EventsCarryPhaseLabelAndClassification) {
  auto ctx = core::make_device(hsim::machines::v100());
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  ctx.set_phase("setup");
  // Memory-bound: 0.25 flop/byte, far below any GPU ridge.
  ctx.forall(1000, {2.0, 8.0}, [](std::size_t) {});
  ctx.set_phase("solve");
  ctx.set_label("axpy");
  // Compute-bound: 1000 flops/byte.
  ctx.record_kernel({1e12, 1e9});
  ctx.set_label("");
  ctx.record_transfer(5e6, true);
  ctx.record_transfer(7e6, false);

  const auto snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 4u);

  EXPECT_EQ(snap[0].kind, obs::TraceEvent::Kind::Kernel);
  EXPECT_EQ(snap[0].phase, "setup");
  EXPECT_EQ(snap[0].label, "forall");  // empty label falls back to op kind
  EXPECT_EQ(snap[0].bound, obs::TraceEvent::Bound::Memory);
  EXPECT_DOUBLE_EQ(snap[0].flops, 2000.0);
  EXPECT_DOUBLE_EQ(snap[0].bytes, 8000.0);
  EXPECT_STREQ(snap[0].backend, "device");

  EXPECT_EQ(snap[1].label, "axpy");
  EXPECT_EQ(snap[1].phase, "solve");
  EXPECT_EQ(snap[1].bound, obs::TraceEvent::Bound::Compute);

  EXPECT_EQ(snap[2].kind, obs::TraceEvent::Kind::TransferH2D);
  EXPECT_EQ(snap[3].kind, obs::TraceEvent::Kind::TransferD2H);
  EXPECT_DOUBLE_EQ(snap[3].bytes, 7e6);

  // Start/duration tile the simulated clock: each event ends where the
  // accounting stood when it was recorded.
  EXPECT_NEAR(snap[3].end(), ctx.simulated_time(), 1e-12);

  // reset() clears the attached buffer along with the counters.
  ctx.reset();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(ctx.trace(), &buf);  // still attached

  // Detaching stops recording.
  ctx.set_trace(nullptr);
  ctx.forall(10, {1.0, 1.0}, [](std::size_t) {});
  EXPECT_TRUE(buf.empty());
}

TEST(ExecTracing, ClassificationMatchesMachineRidge) {
  const auto m = hsim::machines::v100();
  auto ctx = core::make_device(m);
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  const double ridge = m.ridge();
  ctx.record_kernel({ridge * 2.0 * 1e6, 1e6});  // above: compute-bound
  ctx.record_kernel({ridge * 0.5 * 1e6, 1e6});  // below: memory-bound
  const auto snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].bound, obs::TraceEvent::Bound::Compute);
  EXPECT_EQ(snap[1].bound, obs::TraceEvent::Bound::Memory);
}

TEST(ChromeTrace, ExportIsValidAndComplete) {
  auto ctx = core::make_device();
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  ctx.set_phase("assembly");
  ctx.forall(100, {4.0, 16.0}, [](std::size_t) {});
  ctx.record_transfer(1e6, true);

  const auto doc = obs::Json::parse(obs::chrome_trace_json(buf));
  ASSERT_TRUE(doc.contains("traceEvents"));
  const auto& events = doc.at("traceEvents").items();
  // The export opens with the process_name/process_sort_index metadata
  // pair naming this buffer's rank, then one complete event per record.
  ASSERT_EQ(events.size(), buf.size() + 2);
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("name").as_string(), "process_name");
  EXPECT_EQ(events[1].at("name").as_string(), "process_sort_index");
  for (std::size_t i = 2; i < events.size(); ++i) {
    const auto& e = events[i];
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    EXPECT_FALSE(e.at("name").as_string().empty());
    EXPECT_TRUE(e.at("args").contains("bound"));
  }
  // ts/dur are microseconds of simulated time.
  EXPECT_NEAR(events[2].at("dur").as_number(),
              buf.snapshot()[0].duration * 1e6, 1e-6);
  EXPECT_EQ(doc.at("otherData").at("dropped_events").as_number(), 0.0);
}

TEST(Metrics, CounterGaugeHistogram) {
  obs::MetricsRegistry m;
  m.add("hits");
  m.add("hits", 2.0);
  m.set("temp", 19.0);
  m.set("temp", 21.5);
  m.observe("lat", 1.0);
  m.observe("lat", 3.0);
  EXPECT_DOUBLE_EQ(m.counter("hits"), 3.0);
  EXPECT_DOUBLE_EQ(m.counter("absent"), 0.0);
  EXPECT_DOUBLE_EQ(m.gauge("temp"), 21.5);
  const auto h = m.histogram("lat");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 4.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  m.clear();
  EXPECT_DOUBLE_EQ(m.counter("hits"), 0.0);
}

TEST(Metrics, JsonRoundTrip) {
  obs::MetricsRegistry m;
  m.add("a.count", 5.0);
  m.set("a.gauge", -2.5);
  m.observe("a.hist", 10.0);
  m.observe("a.hist", 30.0);
  const auto doc = obs::Json::parse(m.to_json());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("a.count").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("a.gauge").as_number(), -2.5);
  const auto& h = doc.at("histograms").at("a.hist");
  EXPECT_DOUBLE_EQ(h.at("count").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(h.at("sum").as_number(), 40.0);
  EXPECT_DOUBLE_EQ(h.at("min").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(h.at("max").as_number(), 30.0);
}

TEST(Metrics, PublishedCountersMatchExecContext) {
  auto ctx = core::make_device();
  ctx.forall(500, {3.0, 24.0}, [](std::size_t) {});
  ctx.record_kernel({1e9, 1e7});
  ctx.record_transfer(2e6, true);
  ctx.record_transfer(3e6, false);

  obs::MetricsRegistry m;
  hsim::publish(m, "ctx", ctx.counters());
  const auto doc = obs::Json::parse(m.to_json());
  const auto& c = doc.at("counters");
  const auto& k = ctx.counters();
  EXPECT_DOUBLE_EQ(c.at("ctx.flops").as_number(), k.flops);
  EXPECT_DOUBLE_EQ(c.at("ctx.bytes").as_number(), k.bytes);
  EXPECT_DOUBLE_EQ(c.at("ctx.launches").as_number(),
                   static_cast<double>(k.launches));
  EXPECT_DOUBLE_EQ(c.at("ctx.transfers").as_number(),
                   static_cast<double>(k.transfers));
  EXPECT_DOUBLE_EQ(c.at("ctx.h2d_bytes").as_number(), k.h2d_bytes);
  EXPECT_DOUBLE_EQ(c.at("ctx.d2h_bytes").as_number(), k.d2h_bytes);
}

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,-3e2],"b":{"nested":true,"s":"q\"uo\nte"},"n":null})";
  const auto doc = obs::Json::parse(text);
  EXPECT_DOUBLE_EQ(doc.at("a").at(1).as_number(), 2.5);
  EXPECT_DOUBLE_EQ(doc.at("a").at(2).as_number(), -300.0);
  EXPECT_TRUE(doc.at("b").at("nested").as_bool());
  EXPECT_EQ(doc.at("b").at("s").as_string(), "q\"uo\nte");
  EXPECT_TRUE(doc.at("n").is_null());
  // Dump re-parses to the same values.
  const auto again = obs::Json::parse(doc.dump());
  EXPECT_EQ(again.dump(), doc.dump());
}

TEST(Json, MalformedInputsThrow) {
  EXPECT_THROW(obs::Json::parse("{"), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("[1,]"), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("{\"a\":1} trailing"), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("\"bad\\escape\""), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("tru"), obs::JsonError);
  EXPECT_THROW(obs::Json::parse(""), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("1e999"), obs::JsonError);  // non-finite
}

TEST(Publishers, MpiTrafficLandsInRegistry) {
  obs::MetricsRegistry m;
  mpi::RunOptions opts;
  opts.metrics = &m;
  const auto stats = mpi::run(4, opts, [](mpi::Communicator& comm) {
    if (comm.rank() != 0) comm.send(0, 1, {1.0, 2.0});
    if (comm.rank() == 0) {
      for (int r = 1; r < comm.size(); ++r) (void)comm.recv(r, 1);
    }
    comm.barrier();
    (void)comm.allreduce_sum(1.0);
  });
  EXPECT_DOUBLE_EQ(m.counter("mpi.runs"), 1.0);
  EXPECT_DOUBLE_EQ(m.counter("mpi.messages"),
                   static_cast<double>(stats.messages));
  EXPECT_DOUBLE_EQ(m.counter("mpi.bytes"), stats.bytes);
  EXPECT_DOUBLE_EQ(m.counter("mpi.allreduces"),
                   static_cast<double>(stats.allreduces));
  EXPECT_DOUBLE_EQ(m.counter("mpi.barriers"),
                   static_cast<double>(stats.barriers));
  EXPECT_DOUBLE_EQ(m.counter("mpi.rank_failures"), 0.0);
}

TEST(Publishers, SchedulerPublishesWaitsAndCounters) {
  obs::MetricsRegistry m;
  auto jobs = sched::make_workload({200, 30.0, 1.5, 0.0, 0.0, 3});
  sched::SchedulerConfig cfg{8, sched::Policy::Sjf, 0.0, 0};
  cfg.metrics = &m;
  const auto res = sched::Simulator(cfg).run(jobs);
  EXPECT_DOUBLE_EQ(m.counter("sched.jobs"), 200.0);
  EXPECT_DOUBLE_EQ(m.counter("sched.completed"),
                   static_cast<double>(res.completed));
  EXPECT_DOUBLE_EQ(m.gauge("sched.makespan"), res.makespan);
  EXPECT_DOUBLE_EQ(m.gauge("sched.utilization"), res.utilization);
  const auto h = m.histogram("sched.wait_s");
  EXPECT_EQ(h.count, res.completed);
  EXPECT_NEAR(h.mean(), res.mean_wait, 1e-9);
  EXPECT_NEAR(h.max, res.max_wait, 1e-9);
}

struct Blob : resil::Checkpointable {
  std::vector<double> v;
  void save_state(std::vector<double>& out) const override { out = v; }
  void restore_state(const std::vector<double>& in) override { v = in; }
};

TEST(Publishers, ResilientRunPublishesFaultAccounting) {
  obs::MetricsRegistry m;
  auto ctx = core::make_device();
  Blob app;
  app.v.assign(256, 1.0);
  resil::ResilienceConfig cfg;
  cfg.mtbf = 0.002;  // frequent faults against the simulated clock
  cfg.seed = 11;
  cfg.metrics = &m;
  const auto rep = resil::run_resilient(
      app, ctx, 200,
      [&](std::size_t) { ctx.record_kernel({1e7, 1e6}); }, cfg);
  ASSERT_TRUE(rep.completed);
  EXPECT_GT(rep.faults, 0u);
  EXPECT_DOUBLE_EQ(m.counter("resil.faults"),
                   static_cast<double>(rep.faults));
  EXPECT_DOUBLE_EQ(m.counter("resil.checkpoints"),
                   static_cast<double>(rep.checkpoints));
  EXPECT_DOUBLE_EQ(m.counter("resil.checkpoint_bytes"),
                   static_cast<double>(rep.checkpoints) * app.state_bytes());
  EXPECT_DOUBLE_EQ(m.counter("resil.steps_replayed"),
                   static_cast<double>(rep.steps_replayed));
  EXPECT_DOUBLE_EQ(m.counter("resil.wasted_s"), rep.wasted_time);
}

TEST(Reprice, TraceOnSameMachineReproducesSimTime) {
  auto ctx = core::make_device(hsim::machines::v100());
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  ctx.set_phase("a");
  ctx.record_kernel({1e12, 1e9});  // compute-bound
  ctx.record_kernel({1e6, 1e9});   // memory-bound
  ctx.set_phase("b");
  ctx.record_transfer(1e8, true);
  const hsim::CostModel same(hsim::machines::v100());
  EXPECT_NEAR(hsim::reprice(buf, same), ctx.simulated_time(), 1e-12);
  // Phase filtering prices each phase separately; the parts sum to the
  // whole.
  const double a = hsim::reprice(buf, same, "a");
  const double b = hsim::reprice(buf, same, "b");
  EXPECT_NEAR(a + b, ctx.simulated_time(), 1e-12);
  EXPECT_GT(a, b);
}

}  // namespace
