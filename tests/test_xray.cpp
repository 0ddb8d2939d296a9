// Tests for coe::xray: cross-rank trace merge, the distributed critical
// path and its tiling invariant (path length == replayed makespan), the
// five-way blame split, straggler/imbalance attribution, loud failure on
// malformed logs, and the merged Chrome export (DESIGN.md section 16).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include "core/exec.hpp"
#include "la/csr.hpp"
#include "la/krylov.hpp"
#include "md/replicated.hpp"
#include "mpi/comm.hpp"
#include "net/net.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "prof/dag.hpp"
#include "stencil/distributed.hpp"
#include "xray/xray.hpp"

namespace {

using namespace coe;

hsim::ClusterModel test_cluster(double alpha, double beta) {
  hsim::ClusterModel cl;
  cl.name = "test";
  cl.nodes = 64;
  cl.alpha = alpha;
  cl.beta = beta;
  return cl;
}

void push_compute(net::NetLog& log, int rank, double seconds) {
  log.push({net::NetEvent::Kind::Compute, rank, -1, 0, 0.0, seconds, true});
}

void push_send(net::NetLog& log, int rank, int dst, int tag, double bytes,
               bool blocking) {
  log.push({net::NetEvent::Kind::Send, rank, dst, tag, bytes, 0.0, blocking});
}

void push_recv(net::NetLog& log, int rank, int src, int tag, double bytes) {
  log.push({net::NetEvent::Kind::Recv, rank, src, tag, bytes, 0.0, true});
}

xray::Report analyze(const net::NetLog& log, const hsim::ClusterModel& cl,
                     int ranks,
                     const std::vector<obs::TraceBuffer>* traces = nullptr) {
  xray::MergeInputs in;
  in.log = &log;
  in.cluster = &cl;
  in.ranks = ranks;
  in.rank_traces = traces;
  return xray::analyze(in);
}

/// The tiling invariant: consecutive critical steps abut, the path spans
/// [0, makespan], and its length matches to 1e-9 relative.
void expect_tiles(const xray::Report& rep) {
  const double tol = 1e-9 * std::max(1.0, rep.makespan_s);
  ASSERT_FALSE(rep.critical_path.empty());
  EXPECT_NEAR(rep.critical_path.front().start_s, 0.0, tol);
  for (std::size_t i = 0; i + 1 < rep.critical_path.size(); ++i) {
    EXPECT_NEAR(rep.critical_path[i].end_s,
                rep.critical_path[i + 1].start_s, tol)
        << "step " << i;
  }
  EXPECT_NEAR(rep.critical_path.back().end_s, rep.makespan_s, tol);
  EXPECT_NEAR(rep.critical_s, rep.makespan_s, tol);
  double edge_sum = 0.0;
  for (double e : rep.edge_seconds) edge_sum += e;
  EXPECT_NEAR(edge_sum, rep.critical_s, tol);
}

void expect_blame_tiles(const xray::Report& rep) {
  const double tol = 1e-9 * std::max(1.0, rep.timeline_s);
  ASSERT_EQ(rep.blame.size(), static_cast<std::size_t>(rep.ranks));
  for (const auto& b : rep.blame) {
    EXPECT_NEAR(b.total_s(), rep.timeline_s, tol) << "rank " << b.rank;
    if (rep.timeline_s > 0.0) {
      double pct = 0.0;
      for (int k = 0; k < 5; ++k) {
        pct += b.pct(static_cast<xray::Blame>(k));
      }
      EXPECT_NEAR(pct, 100.0, 1e-6) << "rank " << b.rank;
    }
  }
}

// ---------------------------------------------------------------------------
// Hand-built programs with exact expected values.
// ---------------------------------------------------------------------------

TEST(Xray, SerialChainExactCriticalPath) {
  // r0: compute a, blocking send B; r1: recv, compute b. Everything is on
  // the critical path: a, then the message (wire + latency + drain), then b.
  const double a = 1e-3, b = 2e-3, alpha = 1e-6, beta = 1e-9;
  const double B = 1e6;        // bytes
  const double w = B * beta;   // wire time at injection bw 1/beta
  const auto cl = test_cluster(alpha, beta);
  net::NetLog log;
  push_compute(log, 0, a);
  push_send(log, 0, 1, 7, B, true);
  push_recv(log, 1, 0, 7, B);
  push_compute(log, 1, b);

  const auto rep = analyze(log, cl, 2);
  ASSERT_TRUE(rep.well_formed);
  EXPECT_EQ(rep.matched_messages, 1u);
  EXPECT_EQ(rep.unmatched_sends, 0u);
  const double M = a + alpha + 2 * w + b;
  EXPECT_NEAR(rep.makespan_s, M, 1e-15);
  expect_tiles(rep);
  expect_blame_tiles(rep);

  // Exact step structure: r0 compute (root), r0 send, r1 recv via the
  // message edge, r1 compute.
  ASSERT_EQ(rep.critical_path.size(), 4u);
  EXPECT_EQ(rep.critical_path[0].lane, 0);
  EXPECT_EQ(rep.critical_path[0].via, xray::EdgeKind::Root);
  EXPECT_NEAR(rep.critical_path[0].end_s, a, 1e-15);
  EXPECT_EQ(rep.critical_path[1].lane, 0);
  EXPECT_EQ(rep.critical_path[1].via, xray::EdgeKind::Program);
  EXPECT_NEAR(rep.critical_path[1].end_s, a + alpha + w, 1e-15);
  EXPECT_EQ(rep.critical_path[2].lane, 1);
  EXPECT_EQ(rep.critical_path[2].via, xray::EdgeKind::Message);
  EXPECT_NEAR(rep.critical_path[2].end_s, a + alpha + 2 * w, 1e-15);
  EXPECT_EQ(rep.critical_path[3].lane, 1);
  EXPECT_EQ(rep.critical_path[3].via, xray::EdgeKind::Program);

  // Blame: r1's wait on the message is comm-wait, not compute.
  const auto& b0 = rep.blame[0];
  const auto& b1 = rep.blame[1];
  EXPECT_NEAR(b0.seconds[0], a, 1e-15);                       // compute
  EXPECT_NEAR(b0.seconds[3], w, 1e-15);                       // comm (send)
  EXPECT_NEAR(b0.seconds[4], M - (a + w), 1e-15);             // tail idle
  EXPECT_NEAR(b1.seconds[0], b, 1e-15);
  EXPECT_NEAR(b1.seconds[3], a + alpha + 2 * w, 1e-15);       // recv wait
  EXPECT_NEAR(b1.seconds[4], 0.0, 1e-15);

  // r1 computed more: it is the (mild) straggler.
  EXPECT_EQ(rep.straggler_rank, 1);
  EXPECT_NEAR(rep.imbalance_ratio, b / ((a + b) / 2.0), 1e-12);
}

TEST(Xray, ForkJoinCollectiveBlamesLastArriver) {
  // Four ranks compute (r+1)*1ms then allreduce: the path is rank 3's
  // compute followed by the collective, entered via a collective edge.
  const auto cl = test_cluster(1e-6, 1e-9);
  const int P = 4;
  net::NetLog log;
  for (int r = 0; r < P; ++r) {
    push_compute(log, r, (r + 1) * 1e-3);
    log.push({net::NetEvent::Kind::Allreduce, r, -1, 0, 64.0, 0.0, true});
  }
  const auto rep = analyze(log, cl, P);
  ASSERT_TRUE(rep.well_formed);
  const double entry = 4e-3;
  const double cost = cl.allreduce(64, P);
  EXPECT_NEAR(rep.makespan_s, entry + cost, 1e-15);
  expect_tiles(rep);
  expect_blame_tiles(rep);

  ASSERT_EQ(rep.critical_path.size(), 2u);
  EXPECT_EQ(rep.critical_path[0].lane, 3);
  EXPECT_EQ(rep.critical_path[0].via, xray::EdgeKind::Root);
  EXPECT_NEAR(rep.critical_path[0].end_s, entry, 1e-15);
  EXPECT_EQ(rep.critical_path[1].via, xray::EdgeKind::Collective);

  // Everyone but rank 3 charges the gap to imbalance; the cost itself is
  // comm-wait on every rank.
  for (int r = 0; r < P; ++r) {
    const auto& b = rep.blame[static_cast<std::size_t>(r)];
    EXPECT_NEAR(b.seconds[4], entry - (r + 1) * 1e-3, 1e-15) << r;
    EXPECT_NEAR(b.seconds[3], cost, 1e-15) << r;
  }
  EXPECT_EQ(rep.straggler_rank, 3);
  EXPECT_NEAR(rep.imbalance_ratio, 4e-3 / 2.5e-3, 1e-12);
}

TEST(Xray, AllToAllPostedSendsMatchAndTile) {
  // Naive all-to-all with posted sends: exercises injection-engine chains
  // (back-to-back sends) and ejection chains (back-to-back drains).
  const auto cl = test_cluster(2e-6, 2e-9);
  const int P = 4;
  net::NetLog log;
  for (int r = 0; r < P; ++r) {
    push_compute(log, r, (1.0 + r) * 1e-4);
    for (int d = 0; d < P; ++d) {
      if (d != r) push_send(log, r, d, r, 4096.0 * (d + 1), false);
    }
    for (int s = 0; s < P; ++s) {
      if (s != r) push_recv(log, r, s, s, 4096.0 * (r + 1));
    }
  }
  const auto rep = analyze(log, cl, P);
  ASSERT_TRUE(rep.well_formed)
      << (rep.diagnostics.empty() ? "" : rep.diagnostics.front());
  EXPECT_EQ(rep.matched_messages, static_cast<std::size_t>(P * (P - 1)));
  EXPECT_EQ(rep.unmatched_sends, 0u);
  expect_tiles(rep);
  expect_blame_tiles(rep);
}

// ---------------------------------------------------------------------------
// Fuzz: the invariant on random deadlock-free programs.
// ---------------------------------------------------------------------------

TEST(Xray, FuzzCriticalPathEqualsRepricedMakespan) {
  // Generative construction keeps every log deadlock-free: a "message"
  // appends the Send to the source AND the matching Recv to the
  // destination immediately, so every wait points backward in generation
  // order; collectives append to all ranks at once.
  std::mt19937 rng(20260809);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int iter = 0; iter < 150; ++iter) {
    const int P = 2 + static_cast<int>(uni(rng) * 6.0);
    hsim::ClusterModel cl = test_cluster(
        uni(rng) < 0.2 ? 0.0 : 1e-6 * (1.0 + 50.0 * uni(rng)),
        1e-9 * (1.0 + 9.0 * uni(rng)));
    if (uni(rng) < 0.3) cl.injection_bw = 2e8 * (1.0 + uni(rng));
    if (uni(rng) < 0.3) cl.bisection_factor = 0.25 + 0.75 * uni(rng);
    net::NetLog log;
    const int ops = 5 + static_cast<int>(uni(rng) * 35.0);
    for (int k = 0; k < ops; ++k) {
      const double dice = uni(rng);
      if (dice < 0.35) {
        push_compute(log, static_cast<int>(uni(rng) * P), 1e-5 +
                     1e-3 * uni(rng));
      } else if (dice < 0.85) {
        const int src = static_cast<int>(uni(rng) * P);
        int dst = static_cast<int>(uni(rng) * P);
        if (dst == src) dst = (dst + 1) % P;
        const int tag = static_cast<int>(uni(rng) * 4.0);
        const double bytes = 1.0 + 1e6 * uni(rng);
        push_send(log, src, dst, tag, bytes, uni(rng) < 0.5);
        push_recv(log, dst, src, tag, bytes);
      } else if (dice < 0.95) {
        const double bytes = 8.0 + 1e5 * uni(rng);
        for (int r = 0; r < P; ++r) {
          log.push({net::NetEvent::Kind::Allreduce, r, -1, 0, bytes, 0.0,
                    true});
        }
      } else {
        for (int r = 0; r < P; ++r) {
          log.push({net::NetEvent::Kind::Barrier, r, -1, 0, 0.0, 0.0, true});
        }
      }
    }
    const auto rep = analyze(log, cl, P);
    ASSERT_TRUE(rep.well_formed)
        << "iter " << iter << ": "
        << (rep.diagnostics.empty() ? "?" : rep.diagnostics.front());
    if (rep.makespan_s > 0.0) {
      SCOPED_TRACE("iter " + std::to_string(iter));
      expect_tiles(rep);
    }
    expect_blame_tiles(rep);
    // reprice() must be exactly the replay's summary.
    const auto direct = net::reprice(log, cl, P);
    EXPECT_EQ(direct.timeline_s, rep.replay.result.timeline_s);
    EXPECT_EQ(direct.sequential_s, rep.replay.result.sequential_s);
    EXPECT_EQ(direct.messages, rep.replay.result.messages);
  }
}

// ---------------------------------------------------------------------------
// Malformed logs fail loudly.
// ---------------------------------------------------------------------------

TEST(Xray, UnmatchedSendIsDiagnosedLoudly) {
  const auto cl = test_cluster(1e-6, 1e-9);
  net::NetLog log;
  push_compute(log, 0, 1e-3);
  push_send(log, 0, 1, 5, 1024.0, false);
  push_compute(log, 1, 2e-3);
  const auto rep = analyze(log, cl, 2);
  EXPECT_FALSE(rep.well_formed);
  EXPECT_EQ(rep.unmatched_sends, 1u);
  ASSERT_FALSE(rep.diagnostics.empty());
  EXPECT_NE(rep.diagnostics.front().find("unmatched send"),
            std::string::npos);
  // The legacy summary never flagged sole unmatched sends; that behavior
  // is pinned (only xray's merged view escalates them).
  EXPECT_TRUE(rep.replay.result.well_formed);
  // The replay still completed, so the path invariant still holds.
  expect_tiles(rep);
}

TEST(Xray, TruncatedLogBlockedRecvIsDiagnosedLoudly) {
  const auto cl = test_cluster(1e-6, 1e-9);
  net::NetLog log;
  push_compute(log, 0, 1e-3);
  push_recv(log, 0, 1, 3, 512.0);  // rank 1's send was lost
  push_compute(log, 1, 1e-3);
  const auto rep = analyze(log, cl, 2);
  EXPECT_FALSE(rep.well_formed);
  EXPECT_FALSE(rep.replay.result.well_formed);
  ASSERT_FALSE(rep.diagnostics.empty());
  bool mentions_blocked = false;
  for (const auto& d : rep.diagnostics) {
    if (d.find("blocked in recv") != std::string::npos &&
        d.find("truncated") != std::string::npos) {
      mentions_blocked = true;
    }
  }
  EXPECT_TRUE(mentions_blocked);
  // No critical path over a deadlocked replay.
  EXPECT_TRUE(rep.critical_path.empty());
}

TEST(Xray, OutOfRangeRankIsDiagnosed) {
  const auto cl = test_cluster(1e-6, 1e-9);
  net::NetLog log;
  push_compute(log, 7, 1e-3);  // world only has 2 ranks
  const auto rep = analyze(log, cl, 2);
  EXPECT_FALSE(rep.well_formed);
  ASSERT_FALSE(rep.diagnostics.empty());
  EXPECT_NE(rep.diagnostics.front().find("out-of-range"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Driver integration.
// ---------------------------------------------------------------------------

TEST(Xray, SkewedWaveFindsStragglerAndBlamesNeighborsOnCommWait) {
  const int ranks = 4;
  const auto cl = hsim::clusters::sierra(ranks);
  net::NetLog log;
  stencil::DistributedWaveConfig cfg;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 8;
  cfg.steps = 3;
  cfg.cluster = &cl;
  cfg.log = &log;
  cfg.skew_rank = 2;
  cfg.skew_factor = 8.0;
  cfg.trace_ranks = true;
  auto u0 = [](double x, double y, double z) {
    return std::sin(3.14159 * x) * std::sin(3.14159 * y) *
           std::sin(3.14159 * z);
  };
  const auto skewed = distributed_wave_run(ranks, cfg, u0);

  // The skew only touches modeled cost: the field is bitwise unchanged.
  stencil::DistributedWaveConfig plain = cfg;
  plain.cluster = nullptr;
  plain.log = nullptr;
  plain.skew_rank = -1;
  plain.trace_ranks = false;
  const auto ref = distributed_wave_run(ranks, plain, u0);
  EXPECT_EQ(skewed.field, ref.field);

  ASSERT_EQ(skewed.rank_traces.size(), 4u);
  EXPECT_EQ(skewed.rank_traces[2].rank(), 2);

  const auto rep = analyze(log, cl, ranks, &skewed.rank_traces);
  ASSERT_TRUE(rep.well_formed)
      << (rep.diagnostics.empty() ? "?" : rep.diagnostics.front());
  expect_tiles(rep);
  expect_blame_tiles(rep);
  EXPECT_NEAR(rep.timeline_s, skewed.modeled.timeline_s, 1e-15);

  // The injected straggler dominates...
  EXPECT_EQ(rep.straggler_rank, 2);
  EXPECT_GT(rep.imbalance_ratio, 2.0);
  ASSERT_FALSE(rep.stragglers.empty());
  EXPECT_EQ(rep.stragglers.front().rank, 2);
  // ...and its neighbors spend their time waiting on its halos, not idle.
  for (int nb : {1, 3}) {
    const auto& b = rep.blame[static_cast<std::size_t>(nb)];
    EXPECT_GT(b.seconds[3], b.seconds[4]) << "rank " << nb;  // comm > idle
    EXPECT_GT(b.pct(xray::Blame::CommWait),
              rep.blame[2].pct(xray::Blame::CommWait))
        << "rank " << nb;
  }

  // Phase table from the rank traces: the skewed rank owns the stencil max.
  bool saw_stencil = false;
  for (const auto& p : rep.phases) {
    if (p.name == "stencil") {
      saw_stencil = true;
      EXPECT_EQ(p.max_rank, 2);
      EXPECT_GT(p.ratio, 2.0);
    }
  }
  EXPECT_TRUE(saw_stencil);
}

TEST(Xray, OneRankViewsAgree) {
  // On one rank the two critical-path views see the same run: prof walks
  // the rank's stream timeline, xray the replayed program clock. The
  // rank's critical path must equal the Compute seconds on the
  // distributed one, and each path must tile its window.
  const auto cl = hsim::clusters::sierra(1);
  net::NetLog log;
  stencil::DistributedWaveConfig cfg;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 8;
  cfg.steps = 3;
  cfg.cluster = &cl;
  cfg.log = &log;
  cfg.trace_ranks = true;
  auto u0 = [](double x, double y, double z) {
    return std::sin(3.14159 * x) * std::sin(3.14159 * y) *
           std::sin(3.14159 * z);
  };
  const auto res = distributed_wave_run(1, cfg, u0);
  ASSERT_EQ(res.rank_traces.size(), 1u);

  const prof::DagProfile dag = prof::analyze(res.rank_traces[0]);
  const auto rep = analyze(log, cl, 1, &res.rank_traces);
  ASSERT_TRUE(rep.well_formed)
      << (rep.diagnostics.empty() ? "?" : rep.diagnostics.front());
  double compute_s = 0.0;
  for (const auto& step : rep.critical_path) {
    if (rep.replay.events[step.event].ev.kind ==
        net::NetEvent::Kind::Compute) {
      compute_s += step.seconds;
    }
  }
  EXPECT_GT(dag.critical_s, 0.0);
  EXPECT_NEAR(compute_s, dag.critical_s, 1e-9 * dag.critical_s);
  EXPECT_GE(dag.coverage, 1.0 - 1e-9);
  EXPECT_GE(rep.coverage, 1.0 - 1e-9);
}

TEST(Xray, ReplicatedMdMergesCollectiveTraffic) {
  const int ranks = 3;
  const auto cl = hsim::clusters::cori(ranks);
  net::NetLog log;
  md::ReplicatedConfig cfg;
  cfg.per_side = 3;
  cfg.steps = 3;
  cfg.log = &log;
  cfg.cluster = &cl;
  const auto res = md::replicated_md_run(ranks, cfg);
  EXPECT_GT(res.modeled.timeline_s, 0.0);
  const auto rep = analyze(log, cl, ranks);
  ASSERT_TRUE(rep.well_formed)
      << (rep.diagnostics.empty() ? "?" : rep.diagnostics.front());
  EXPECT_GT(rep.matched_messages, 0u);
  expect_tiles(rep);
  expect_blame_tiles(rep);
  EXPECT_EQ(rep.timeline_s, res.modeled.timeline_s);
}

TEST(Xray, CgLoggedReduceMergesSolverRounds) {
  const int ranks = 4;
  const auto cl = hsim::clusters::sierra(ranks);
  auto a = la::poisson2d(12, 12);
  la::CsrOperator op(a);
  la::JacobiPreconditioner jacobi(a);
  std::vector<double> b(a.rows(), 1.0);
  net::NetLog log;
  mpi::run(ranks, [&](mpi::Communicator& comm) {
    auto ctx = core::make_seq();
    std::vector<double> x(a.rows(), 0.0);
    la::SolveOptions opts;
    opts.max_iters = 30;
    opts.rel_tol = 1e-8;
    opts.reduce = net::logged_reduce(
        comm, net::AllreduceAlgo::RecursiveDoubling, nullptr,
        net::RankLogger(&log, comm.rank()), &ctx);
    la::cg(ctx, op, jacobi, b, x, opts);
  });
  const auto rep = analyze(log, cl, ranks);
  ASSERT_TRUE(rep.well_formed)
      << (rep.diagnostics.empty() ? "?" : rep.diagnostics.front());
  EXPECT_GT(rep.matched_messages, 0u);
  // The hook interleaves real compute deltas with the rounds.
  bool saw_compute = false;
  for (const auto& re : rep.replay.events) {
    if (re.ev.kind == net::NetEvent::Kind::Compute && re.ev.seconds > 0.0) {
      saw_compute = true;
    }
  }
  EXPECT_TRUE(saw_compute);
  expect_tiles(rep);
  expect_blame_tiles(rep);
}

// ---------------------------------------------------------------------------
// Wall-clock stamps and exports.
// ---------------------------------------------------------------------------

TEST(Xray, RecvEventsCarryWallClockStamps) {
  net::NetLog log;
  mpi::run(2, [&](mpi::Communicator& comm) {
    net::RankLogger logger(&log, comm.rank());
    std::vector<double> v(8, 1.0);
    if (comm.rank() == 0) {
      comm.send(1, 1, v);
      logger.send(1, 1, 64.0, true);
      comm.send(1, 2, v);
      logger.send(1, 2, 64.0, true);
    } else {
      comm.recv(0, 1);
      logger.recv(0, 1, 64.0);
      comm.recv(0, 2);
      logger.recv(0, 2, 64.0);
    }
  });
  double last = -1.0;
  std::size_t recvs = 0;
  for (const auto& e : log.snapshot()) {
    if (e.kind == net::NetEvent::Kind::Recv) {
      ++recvs;
      EXPECT_GE(e.t_wall, 0.0);
      EXPECT_GE(e.t_wall, last);  // completion order on one rank
      last = e.t_wall;
    } else {
      EXPECT_LT(e.t_wall, 0.0);  // only completions are stamped
    }
  }
  EXPECT_EQ(recvs, 2u);
}

TEST(Xray, TraceBufferRankRoundTripsThroughChromeJson) {
  obs::TraceBuffer buf(16);
  buf.set_rank(3);
  buf.set_source("host", 5e-6);
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::Kernel;
  e.label = "k";
  e.phase = "p";
  e.t_start = 1e-3;
  e.duration = 2e-3;
  buf.push(e);
  const std::string doc = obs::chrome_trace_json(buf);
  EXPECT_NE(doc.find("process_name"), std::string::npos);
  EXPECT_NE(doc.find("process_sort_index"), std::string::npos);
  EXPECT_NE(doc.find("\"pid\":3"), std::string::npos);
  const obs::TraceBuffer back = obs::parse_chrome_trace(doc);
  EXPECT_EQ(back.rank(), 3);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.snapshot()[0].label, "k");
}

TEST(Xray, ReportJsonAndMergedTraceAreWellFormed) {
  const auto cl = test_cluster(1e-6, 1e-9);
  net::NetLog log;
  push_compute(log, 0, 1e-3);
  push_send(log, 0, 1, 7, 1e5, true);
  push_recv(log, 1, 0, 7, 1e5);
  push_compute(log, 1, 2e-3);
  std::vector<obs::TraceBuffer> traces(2);
  for (int r = 0; r < 2; ++r) {
    traces[static_cast<std::size_t>(r)].set_rank(r);
    obs::TraceEvent e;
    e.kind = obs::TraceEvent::Kind::Kernel;
    e.label = "wave";
    e.phase = "stencil";
    e.t_start = 0.0;
    e.duration = r == 0 ? 1e-3 : 2e-3;
    traces[static_cast<std::size_t>(r)].push(e);
  }
  const auto rep = analyze(log, cl, 2, &traces);
  ASSERT_TRUE(rep.well_formed);

  const obs::Json j = xray::report_json(rep, "unit");
  EXPECT_EQ(j.at("schema").as_string(), "coe-xray-v1");
  EXPECT_EQ(j.at("ranks").as_number(), 2.0);
  double pct = 0.0;
  for (const auto& [k, v] : j.at("blame").at(0).at("pct").fields()) {
    pct += v.as_number();
  }
  EXPECT_NEAR(pct, 100.0, 1e-6);
  EXPECT_EQ(j.at("imbalance").at("straggler_rank").as_number(), 1.0);
  EXPECT_GE(j.at("imbalance").at("ratio").as_number(), 1.0);

  const std::string text = xray::straggler_report(rep, "unit");
  EXPECT_NE(text.find("straggler"), std::string::npos);
  EXPECT_NE(text.find("blame"), std::string::npos);

  // The merged Chrome document parses, every event carries ts + name, the
  // matched pair appears as an s/f flow, and the kernel events survive a
  // parse_chrome_trace round trip.
  const std::string merged = xray::merged_chrome_trace_json(rep, &traces);
  const obs::Json doc = obs::Json::parse(merged);
  std::size_t flows = 0;
  for (const obs::Json& ev : doc.at("traceEvents").items()) {
    EXPECT_TRUE(ev.contains("ts"));
    EXPECT_TRUE(ev.contains("name"));
    if (ev.contains("ph") && (ev.at("ph").as_string() == "s" ||
                              ev.at("ph").as_string() == "f")) {
      ++flows;
    }
  }
  EXPECT_EQ(flows, 2u);  // one s + one f for the single matched message
  EXPECT_TRUE(doc.at("otherData").at("merged").as_bool());
  const obs::TraceBuffer flat = obs::parse_chrome_trace(merged);
  EXPECT_EQ(flat.size(), 2u);  // the two kernels; net rows are decoration

  obs::MetricsRegistry metrics;
  xray::publish(rep, metrics);
  EXPECT_EQ(metrics.gauge("xray.ranks"), 2.0);
  EXPECT_NEAR(metrics.gauge("xray.coverage"), 1.0, 1e-9);
  EXPECT_EQ(metrics.gauge("xray.straggler_rank"), 1.0);
  double blame_pct = 0.0;
  for (const char* k :
       {"compute", "memory", "launch_transfer", "comm_wait", "imbalance"}) {
    blame_pct += metrics.gauge(std::string("xray.blame.") + k + "_pct");
  }
  EXPECT_NEAR(blame_pct, 100.0, 1e-6);
}

}  // namespace
