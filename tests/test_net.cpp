// Tests for coe::net: nonblocking point-to-point semantics, log-P
// collectives, halo aggregation, and the per-link occupancy repricer
// (DESIGN.md section 15).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "core/exec.hpp"
#include "la/csr.hpp"
#include "la/krylov.hpp"
#include "md/replicated.hpp"
#include "mpi/comm.hpp"
#include "net/net.hpp"
#include "stencil/distributed.hpp"

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

// ---------------------------------------------------------------------------
// Nonblocking point-to-point.
// ---------------------------------------------------------------------------

TEST(Net, IrecvCompletesOutOfOrder) {
  // Two messages with distinct tags; the receiver waits them in the
  // opposite order from posting. Completion order is the wait order.
  mpi::run(2, [&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, {7.0, 77.0});
      comm.send(1, 8, {8.0});
    } else {
      mpi::Request r7 = comm.irecv(0, 7);
      mpi::Request r8 = comm.irecv(0, 8);
      EXPECT_FALSE(r7.done());
      EXPECT_FALSE(r8.done());
      const auto m8 = comm.wait(r8);  // waited first though posted second
      ASSERT_EQ(m8.size(), 1u);
      EXPECT_DOUBLE_EQ(m8[0], 8.0);
      const auto m7 = comm.wait(r7);
      ASSERT_EQ(m7.size(), 2u);
      EXPECT_DOUBLE_EQ(m7[0], 7.0);
      EXPECT_DOUBLE_EQ(m7[1], 77.0);
      EXPECT_TRUE(r7.done());
      EXPECT_TRUE(r8.done());
    }
  });
}

TEST(Net, IsendRequestsAreBornComplete) {
  auto stats = mpi::run(2, [&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      mpi::Request s = comm.isend(1, 3, {1.0, 2.0, 3.0});
      EXPECT_TRUE(s.done());  // eager substrate: deposited at post time
      EXPECT_TRUE(s.valid());
      comm.wait(s);  // waiting a complete request is a no-op
    } else {
      const auto m = comm.recv(0, 3);
      EXPECT_EQ(m.size(), 3u);
    }
  });
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_DOUBLE_EQ(stats.bytes, 3.0 * 8.0);
}

TEST(Net, WaitallMixesDoneAndPending) {
  mpi::run(2, [&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<mpi::Request> rs;
      rs.push_back(comm.isend(1, 1, {10.0}));      // already done
      rs.push_back(comm.irecv(1, 2));              // pending
      rs.push_back(comm.isend(1, 3, {30.0}));      // already done
      rs.push_back(comm.irecv(1, 4));              // pending
      comm.waitall(rs);
      for (auto& r : rs) EXPECT_TRUE(r.done());
      ASSERT_EQ(rs[1].data().size(), 1u);
      EXPECT_DOUBLE_EQ(rs[1].data()[0], 2.0);
      ASSERT_EQ(rs[3].data().size(), 1u);
      EXPECT_DOUBLE_EQ(rs[3].data()[0], 4.0);
    } else {
      comm.send(0, 2, {2.0});
      comm.send(0, 4, {4.0});
      EXPECT_DOUBLE_EQ(comm.recv(0, 1)[0], 10.0);
      EXPECT_DOUBLE_EQ(comm.recv(0, 3)[0], 30.0);
    }
  });
}

TEST(Net, TestProbesWithoutBlocking) {
  mpi::run(2, [&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      mpi::Request r = comm.irecv(1, 5);
      // Nothing sent yet: test() must fail without blocking.
      EXPECT_FALSE(comm.test(r));
      comm.send(1, 6, {0.0});  // release the sender
      const auto m = comm.wait(r);
      EXPECT_DOUBLE_EQ(m[0], 5.5);
    } else {
      comm.recv(0, 6);
      comm.send(0, 5, {5.5});
    }
  });
}

TEST(Net, AbortWakesPendingIrecv) {
  // Rank 0 parks in wait() on a message that never comes; rank 1 dies.
  // The pending irecv must wake with PeerFailure (not hang, not timeout),
  // and run() must rethrow rank 1's original error.
  std::atomic<bool> woke{false};
  EXPECT_THROW(
      mpi::run(2,
               [&](mpi::Communicator& comm) {
                 if (comm.rank() == 0) {
                   mpi::Request r = comm.irecv(1, 9);
                   try {
                     comm.wait(r);
                   } catch (const mpi::PeerFailure&) {
                     woke.store(true);
                     throw;
                   }
                 } else {
                   throw std::runtime_error("rank 1 failed");
                 }
               }),
      std::runtime_error);
  EXPECT_TRUE(woke.load());
}

TEST(Net, DeadlineExpiryRetriesBeforeCompleting) {
  // The sender stalls past the first deadline; the receiver's wait() must
  // burn at least one retry and still complete once the message lands.
  mpi::RunOptions opts;
  opts.timeout_seconds = 0.05;
  opts.max_retries = 8;
  opts.retry_backoff_seconds = 0.05;
  auto stats = mpi::run(2, opts, [&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      mpi::Request r = comm.irecv(1, 11);
      const auto m = comm.wait(r);
      EXPECT_DOUBLE_EQ(m[0], 11.0);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      comm.send(0, 11, {11.0});
    }
  });
  EXPECT_GE(stats.retries, 1u);
}

// ---------------------------------------------------------------------------
// Collectives.
// ---------------------------------------------------------------------------

TEST(Net, AllreduceSumAllAlgorithmsCorrect) {
  // Integer-valued doubles sum exactly, so every algorithm must agree with
  // the analytic total on both power-of-two and ragged rank counts.
  const net::AllreduceAlgo algos[] = {
      net::AllreduceAlgo::Central, net::AllreduceAlgo::Naive,
      net::AllreduceAlgo::RecursiveDoubling, net::AllreduceAlgo::Ring};
  for (int ranks : {1, 2, 4, 7}) {
    for (auto algo : algos) {
      mpi::run(ranks, [&](mpi::Communicator& comm) {
        std::vector<double> v(5);
        for (std::size_t i = 0; i < v.size(); ++i) {
          v[i] = double(comm.rank() + 1) * double(i + 1);
        }
        net::allreduce_sum(comm, v, algo);
        const double rsum = double(ranks) * double(ranks + 1) / 2.0;
        for (std::size_t i = 0; i < v.size(); ++i) {
          EXPECT_DOUBLE_EQ(v[i], rsum * double(i + 1))
              << algo_name(algo) << " ranks=" << ranks << " i=" << i;
        }
        double s = double(comm.rank());
        net::allreduce_sum(comm, std::span<double>(&s, 1), algo);
        EXPECT_DOUBLE_EQ(s, double(ranks) * double(ranks - 1) / 2.0);
      });
    }
  }
}

TEST(Net, AllreduceMaxAllAlgorithmsCorrect) {
  const net::AllreduceAlgo algos[] = {
      net::AllreduceAlgo::Central, net::AllreduceAlgo::Naive,
      net::AllreduceAlgo::RecursiveDoubling, net::AllreduceAlgo::Ring};
  for (auto algo : algos) {
    mpi::run(5, [&](mpi::Communicator& comm) {
      std::vector<double> v{double(comm.rank()), -double(comm.rank()),
                            3.5};
      net::allreduce_max(comm, v, algo);
      EXPECT_DOUBLE_EQ(v[0], 4.0) << algo_name(algo);
      EXPECT_DOUBLE_EQ(v[1], 0.0) << algo_name(algo);
      EXPECT_DOUBLE_EQ(v[2], 3.5) << algo_name(algo);
      double m = double(comm.rank() * 2);
      net::allreduce_max(comm, std::span<double>(&m, 1), algo);
      EXPECT_DOUBLE_EQ(m, 8.0) << algo_name(algo);
    });
  }
}

TEST(Net, AllreduceDeterministicAcrossRepeats) {
  // Non-commutative-looking FP inputs: every algorithm must produce the
  // same bits on every rank and on every repetition.
  for (auto algo : {net::AllreduceAlgo::RecursiveDoubling,
                    net::AllreduceAlgo::Ring, net::AllreduceAlgo::Naive}) {
    std::vector<double> first;
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<double> results(6, 0.0);
      std::atomic<int> slot{0};
      mpi::run(6, [&](mpi::Communicator& comm) {
        double v = 0.1 * double(comm.rank() + 1) + 1e-13;
        net::allreduce_sum(comm, std::span<double>(&v, 1), algo);
        results[std::size_t(slot.fetch_add(1))] = v;
      });
      for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[0], results[i]) << algo_name(algo);
      }
      if (rep == 0) {
        first = results;
      } else {
        EXPECT_EQ(first[0], results[0]) << algo_name(algo);
      }
    }
  }
}

TEST(Net, AllreduceMessageCountsMatchFormulas) {
  // Measured substrate traffic must equal the closed-form message counts
  // the ablation sweeps (O(P^2) naive vs O(P log P) recursive doubling).
  for (int ranks : {2, 4, 5, 7, 8}) {
    for (auto algo : {net::AllreduceAlgo::Naive,
                      net::AllreduceAlgo::RecursiveDoubling,
                      net::AllreduceAlgo::Ring}) {
      net::NetStats net_stats;
      std::mutex mtx;
      auto stats = mpi::run(ranks, [&](mpi::Communicator& comm) {
        std::vector<double> v(3, double(comm.rank()));
        net::NetStats local;
        net::allreduce_sum(comm, v, algo, &local);
        std::lock_guard<std::mutex> lk(mtx);
        net_stats.messages += local.messages;
        net_stats.bytes += local.bytes;
        net_stats.reductions += local.reductions;
      });
      const std::size_t expect = net::allreduce_messages(algo, ranks);
      EXPECT_EQ(stats.messages, expect)
          << algo_name(algo) << " ranks=" << ranks;
      EXPECT_EQ(net_stats.messages, expect)
          << algo_name(algo) << " ranks=" << ranks;
      EXPECT_EQ(net_stats.reductions, std::size_t(ranks));
      EXPECT_EQ(stats.allreduces, 0u);  // no shared-buffer collective used
    }
  }
  // Growth classes: at 64 ranks naive is O(P^2), rd is O(P log P).
  const auto naive64 =
      net::allreduce_messages(net::AllreduceAlgo::Naive, 64);
  const auto rd64 =
      net::allreduce_messages(net::AllreduceAlgo::RecursiveDoubling, 64);
  EXPECT_EQ(naive64, std::size_t(64 * 63));
  EXPECT_EQ(rd64, std::size_t(64 * 6));
  EXPECT_GT(naive64, 10 * rd64);
}

TEST(Net, SelectAllreducePicksLatencyThenBandwidth) {
  // High-latency fabric: small vectors are latency-bound so the log2(P)
  // round count wins; large vectors are bandwidth-bound so the ring's
  // 2(P-1)/P byte volume wins.
  const auto cl = test_cluster(1e-5, 1e-9);
  EXPECT_EQ(net::select_allreduce(cl, 8, 64),
            net::AllreduceAlgo::RecursiveDoubling);
  EXPECT_EQ(net::select_allreduce(cl, 64 << 20, 64),
            net::AllreduceAlgo::Ring);
  // The pick must be the argmin of the modeled times it chooses between.
  for (std::size_t bytes : {8u, 1024u, 1u << 16, 1u << 24}) {
    const auto pick = net::select_allreduce(cl, bytes, 32);
    const double t = net::modeled_allreduce(pick, cl, bytes, 32);
    EXPECT_LE(t, net::modeled_allreduce(
                     net::AllreduceAlgo::RecursiveDoubling, cl, bytes, 32));
    EXPECT_LE(t, net::modeled_allreduce(net::AllreduceAlgo::Ring, cl,
                                        bytes, 32));
  }
}

// ---------------------------------------------------------------------------
// Halo aggregation.
// ---------------------------------------------------------------------------

TEST(Net, HaloPlanExchangesAggregatedFaces) {
  // Two ranks, one neighbor each, two faces per direction packed into one
  // message each way. Field layout per rank: [g0 g1 | i0 i1 i2 i3 | g2 g3].
  auto stats = mpi::run(2, [&](mpi::Communicator& comm) {
    const int r = comm.rank();
    std::vector<double> field(8, 0.0);
    for (std::size_t i = 2; i < 6; ++i) {
      field[i] = 100.0 * double(r) + double(i);
    }
    net::HaloPlan plan;
    const int nb = plan.add_neighbor(1 - r, /*send_tag=*/40 + r,
                                     /*recv_tag=*/40 + (1 - r));
    plan.add_send(nb, 2, 1);  // first interior cell
    plan.add_send(nb, 5, 1);  // last interior cell
    plan.add_recv(nb, 0, 1);
    plan.add_recv(nb, 1, 1);
    EXPECT_EQ(plan.neighbor_count(), 1u);
    EXPECT_EQ(plan.send_doubles(), 2u);
    plan.exchange(comm, field);
    // Peer's interior edge cells land in our ghosts, in face order.
    EXPECT_DOUBLE_EQ(field[0], 100.0 * double(1 - r) + 2.0);
    EXPECT_DOUBLE_EQ(field[1], 100.0 * double(1 - r) + 5.0);
    EXPECT_EQ(plan.stats().exchanges, 1u);
    EXPECT_EQ(plan.stats().messages, 1u);  // ONE coalesced message
    EXPECT_DOUBLE_EQ(plan.stats().bytes, 2.0 * 8.0);
  });
  EXPECT_EQ(stats.messages, 2u);  // one per rank
}

TEST(Net, HaloPlanBeginFinishOverlapsAndPacksAtBegin) {
  mpi::run(2, [&](mpi::Communicator& comm) {
    const int r = comm.rank();
    std::vector<double> field(4, double(r + 1));
    net::HaloPlan plan;
    const int nb = plan.add_neighbor(1 - r, 50 + r, 50 + (1 - r));
    plan.add_send(nb, 1, 2);
    plan.add_recv(nb, 0, 1);
    plan.add_recv(nb, 3, 1);
    plan.begin(comm, field);
    // Packing happened at begin(): mutating the send faces now must not
    // leak into what the peer receives.
    field[1] = field[2] = -99.0;
    // Re-entering begin while an exchange is in flight is a caller bug.
    EXPECT_THROW(plan.begin(comm, field), std::logic_error);
    plan.finish(comm, field);
    EXPECT_DOUBLE_EQ(field[0], double((1 - r) + 1));
    EXPECT_DOUBLE_EQ(field[3], double((1 - r) + 1));
  });
}

TEST(Net, HaloPlanSizeMismatchThrows) {
  // The receiver expects 3 doubles but the peer's plan sends 2: finish()
  // must throw rather than silently scatter a short message.
  EXPECT_THROW(mpi::run(2,
                        [&](mpi::Communicator& comm) {
                          const int r = comm.rank();
                          std::vector<double> field(8, 0.0);
                          net::HaloPlan plan;
                          const int nb = plan.add_neighbor(
                              1 - r, 60 + r, 60 + (1 - r));
                          plan.add_send(nb, 0, 2);
                          plan.add_recv(nb, 4, r == 0 ? 3 : 2);
                          plan.exchange(comm, field);
                        }),
               std::runtime_error);
}

TEST(Net, HaloPlanFourNeighborRing) {
  // 4 ranks in a periodic ring, left+right neighbors, 2 faces each: the
  // aggregated plan sends exactly 2 messages per rank per exchange.
  auto stats = mpi::run(4, [&](mpi::Communicator& comm) {
    const int r = comm.rank();
    const int p = comm.size();
    const int left = (r + p - 1) % p;
    const int right = (r + 1) % p;
    // Layout: [L0 L1 | i0 i1 i2 i3 | R0 R1].
    std::vector<double> field(8, 0.0);
    for (std::size_t i = 2; i < 6; ++i) field[i] = 10.0 * r + double(i);
    net::HaloPlan plan;
    const int nl = plan.add_neighbor(left, /*send*/ 70, /*recv*/ 71);
    plan.add_send(nl, 2, 1);
    plan.add_send(nl, 3, 1);
    plan.add_recv(nl, 0, 2);
    const int nr = plan.add_neighbor(right, 71, 70);
    plan.add_send(nr, 4, 1);
    plan.add_send(nr, 5, 1);
    plan.add_recv(nr, 6, 2);
    plan.exchange(comm, field);
    EXPECT_DOUBLE_EQ(field[0], 10.0 * left + 4.0);
    EXPECT_DOUBLE_EQ(field[1], 10.0 * left + 5.0);
    EXPECT_DOUBLE_EQ(field[6], 10.0 * right + 2.0);
    EXPECT_DOUBLE_EQ(field[7], 10.0 * right + 3.0);
    EXPECT_EQ(plan.stats().messages, 2u);
  });
  EXPECT_EQ(stats.messages, 8u);  // 4 ranks x 2 coalesced messages
}

// ---------------------------------------------------------------------------
// Repricing.
// ---------------------------------------------------------------------------

TEST(Net, RepriceOverlapHidesTransferBehindCompute) {
  // Rank 0 posts a send then computes; rank 1 computes then waits. The
  // compute interval hides the transfer, so the timeline beats the
  // sequentialized bound while never dipping below the compute floor.
  const auto cl = test_cluster(1e-6, 1e-9);
  const double bytes = 1e6;  // 1 ms transfer at 1 GB/s
  const double work = 5e-3;  // 5 ms of compute on both ranks
  net::NetLog log;
  net::RankLogger r0(&log, 0), r1(&log, 1);
  r0.send(1, 1, bytes, /*blocking=*/false);
  r0.compute(work);
  r1.compute(work);
  r1.recv(0, 1, bytes);
  const auto rr = net::reprice(log, cl, 2);
  EXPECT_TRUE(rr.well_formed);
  EXPECT_EQ(rr.messages, 1u);
  EXPECT_DOUBLE_EQ(rr.bytes, bytes);
  EXPECT_GE(rr.timeline_s, rr.compute_s);
  EXPECT_LT(rr.timeline_s, rr.sequential_s);
  EXPECT_GT(rr.speedup(), 1.0);
  // The transfer is fully hidden: timeline ~ compute + ejection drain.
  EXPECT_LT(rr.timeline_s, work + 2e-3);
}

TEST(Net, RepriceBlockingSendStallsSender) {
  // The same traffic with a synchronous send: the sender's program clock
  // must ride through the injection, serializing send before compute.
  const auto cl = test_cluster(1e-6, 1e-9);
  const double bytes = 4e6;   // 4 ms through the injection engine
  const double work = 1e-2;   // sender-side compute dominates the makespan
  auto makespan = [&](bool blocking) {
    net::NetLog log;
    net::RankLogger r0(&log, 0), r1(&log, 1);
    r0.send(1, 1, bytes, blocking);
    r0.compute(work);
    r1.compute(1e-3);
    r1.recv(0, 1, bytes);
    const auto rr = net::reprice(log, cl, 2);
    EXPECT_TRUE(rr.well_formed);
    return rr.timeline_s;
  };
  // Blocking: inject (4 ms) then compute (10 ms). Posted: alpha + 10 ms.
  EXPECT_GT(makespan(true), makespan(false) + 3e-3);
}

TEST(Net, RepriceCollectiveSynchronizesRanks) {
  const auto cl = test_cluster(1e-6, 1e-9);
  net::NetLog log;
  net::RankLogger r0(&log, 0), r1(&log, 1), r2(&log, 2);
  r0.compute(1e-3);
  r0.allreduce(800.0);
  r1.allreduce(800.0);
  r2.compute(3e-3);
  r2.allreduce(800.0);
  const auto rr = net::reprice(log, cl, 3);
  EXPECT_TRUE(rr.well_formed);
  // Everyone leaves the collective no earlier than the slowest entrant
  // plus the analytic collective cost.
  EXPECT_GE(rr.timeline_s, 3e-3 + cl.allreduce(800, 3));
}

TEST(Net, RepriceDeadlockIsNotWellFormed) {
  const auto cl = test_cluster(1e-6, 1e-9);
  net::NetLog log;
  net::RankLogger r0(&log, 0), r1(&log, 1);
  r0.recv(1, 1, 100.0);  // no matching send anywhere
  r1.compute(1e-3);
  const auto rr = net::reprice(log, cl, 2);
  EXPECT_FALSE(rr.well_formed);
}

TEST(Net, RepriceBisectionFloorBindsTaperedFabrics) {
  // A fabric with 10% bisection: midpoint-crossing traffic is floored by
  // bytes / (bisection_factor * inj_bw * ranks/2) even though per-link
  // occupancy would finish sooner.
  auto cl = test_cluster(1e-6, 1e-9);
  cl.bisection_factor = 0.1;
  const double bytes = 8e6;
  net::NetLog log;
  net::RankLogger r0(&log, 0), r1(&log, 1);
  r0.send(1, 1, bytes, false);
  r1.recv(0, 1, bytes);
  const auto rr = net::reprice(log, cl, 2);
  EXPECT_TRUE(rr.well_formed);
  EXPECT_GT(rr.bisection_floor_s, 0.0);
  EXPECT_DOUBLE_EQ(rr.timeline_s, rr.bisection_floor_s);
  // Full-bisection fabric with the same traffic is not floored.
  auto full = cl;
  full.bisection_factor = 1.0;
  const auto rf = net::reprice(log, full, 2);
  EXPECT_LT(rf.timeline_s, rr.timeline_s);
}

// ---------------------------------------------------------------------------
// Driver integration: stencil, CG, MD.
// ---------------------------------------------------------------------------

TEST(Net, DistributedWaveBitIdenticalAcrossCommModes) {
  // Aggregation and overlap are pure communication-schedule changes; the
  // produced field must be bitwise identical across the 2x2 matrix, while
  // aggregation halves the halo message count.
  stencil::DistributedWaveConfig cfg;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 8;
  cfg.steps = 6;
  auto u0 = [](double x, double y, double z) {
    return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
  };
  std::vector<std::vector<double>> fields;
  std::vector<net::HaloStats> halos;
  for (bool aggregate : {true, false}) {
    for (bool overlap : {true, false}) {
      cfg.aggregate_halos = aggregate;
      cfg.overlap = overlap;
      auto res = stencil::distributed_wave_run(4, cfg, u0);
      fields.push_back(std::move(res.field));
      halos.push_back(res.halo);
    }
  }
  for (std::size_t i = 1; i < fields.size(); ++i) {
    EXPECT_EQ(fields[0], fields[i]) << "mode " << i;
  }
  // fields[0..1] aggregated, fields[2..3] not: half the messages, same
  // bytes (the payload does not change, only the coalescing).
  EXPECT_EQ(halos[0].messages * 2, halos[2].messages);
  EXPECT_DOUBLE_EQ(halos[0].bytes, halos[2].bytes);
}

TEST(Net, DistributedWaveRepriceShowsOverlapWin) {
  stencil::DistributedWaveConfig cfg;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 8;
  cfg.steps = 4;
  const auto cl = test_cluster(5e-6, 1e-9);
  cfg.cluster = &cl;
  auto u0 = [](double x, double, double) { return std::sin(M_PI * x); };
  auto res = stencil::distributed_wave_run(4, cfg, u0);
  EXPECT_TRUE(res.modeled.well_formed);
  EXPECT_GT(res.modeled.messages, 0u);
  EXPECT_GT(res.modeled.timeline_s, 0.0);
  EXPECT_LE(res.modeled.timeline_s, res.modeled.sequential_s);
  EXPECT_GE(res.modeled.speedup(), 1.0);

  cfg.aggregate_halos = false;
  cfg.overlap = false;
  auto base = stencil::distributed_wave_run(4, cfg, u0);
  EXPECT_TRUE(base.modeled.well_formed);
  EXPECT_EQ(res.field, base.field);  // numerics unchanged by scheduling
  // Aggregation + overlap must not model slower than neither.
  EXPECT_LE(res.modeled.timeline_s, base.modeled.timeline_s);
}

TEST(Net, CgReduceHookMatchesSingleDomainBitwise) {
  // Four ranks each solve the identical system; the reduce hook allreduces
  // (sum of four identical values = 4v exactly) and rescales by 1/4 (a
  // power of two, exact). Every rank must reproduce the hook-free solve
  // bit for bit, proving the hook sits at exactly the right points.
  auto a = la::poisson2d(16, 16);
  la::CsrOperator op(a);
  la::JacobiPreconditioner jacobi(a);
  std::vector<double> b(a.rows(), 1.0);

  auto ctx0 = core::make_seq();
  std::vector<double> x_ref(a.rows(), 0.0);
  la::SolveOptions opts;
  opts.max_iters = 80;
  opts.rel_tol = 1e-10;
  const auto ref = la::cg(ctx0, op, jacobi, b, x_ref, opts);
  EXPECT_GT(ref.reductions, 0u);  // rounds are counted even without a hook

  const int ranks = 4;
  std::vector<std::vector<double>> xs(ranks);
  std::vector<std::size_t> reductions(ranks, 0);
  mpi::run(ranks, [&](mpi::Communicator& comm) {
    auto ctx = core::make_seq();
    auto& x = xs[std::size_t(comm.rank())];
    x.assign(a.rows(), 0.0);
    la::SolveOptions dopts = opts;
    dopts.reduce = [&](std::span<double> vals) {
      net::allreduce_sum(comm, vals,
                         net::AllreduceAlgo::RecursiveDoubling);
      for (auto& v : vals) v *= 0.25;
    };
    const auto res = la::cg(ctx, op, jacobi, b, x, dopts);
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_EQ(res.reductions, ref.reductions);  // same round structure
    reductions[std::size_t(comm.rank())] = res.reductions;
  });
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(xs[std::size_t(r)], x_ref) << "rank " << r;
    EXPECT_GT(reductions[std::size_t(r)], 0u);
  }
}

TEST(Net, CgFusedReductionsBitwiseIdenticalHalvesRounds) {
  auto a = la::poisson2d(20, 20);
  la::CsrOperator op(a);
  la::JacobiPreconditioner jacobi(a);
  std::vector<double> b(a.rows(), 1.0);

  auto solve = [&](bool fuse, std::vector<double>& x) {
    auto ctx = core::make_seq();
    x.assign(a.rows(), 0.0);
    la::SolveOptions opts;
    opts.max_iters = 80;
    opts.rel_tol = 1e-10;
    opts.fused_reductions = fuse;
    opts.reduce = [](std::span<double>) {};  // count-only hook
    return la::cg(ctx, op, jacobi, b, x, opts);
  };
  std::vector<double> x2, x1;
  const auto two_round = solve(false, x2);
  const auto one_round = solve(true, x1);
  EXPECT_EQ(two_round.iterations, one_round.iterations);
  EXPECT_EQ(x2, x1);  // element-wise bitwise equality
  // Two rounds (pap; rr) + separate rz round vs pap + one fused pair:
  // 3 rounds/iter drop to 2 (plus the init rounds shrinking 2 -> 1).
  EXPECT_LT(one_round.reductions, two_round.reductions);
  // Init: 2 rounds (r.z, then ||r||^2) vs 1 fused pair. Per iteration:
  // pap + ||r||^2 + r.z vs pap + fused pair — except the converging
  // iteration, which breaks before the two-round path's r.z round.
  const std::size_t it = two_round.iterations;
  EXPECT_EQ(two_round.reductions, 1 + 3 * it);
  EXPECT_EQ(one_round.reductions, 1 + 2 * it);
}

TEST(Net, CgFusedReductionsAlsoExactUnderKernelFusion) {
  // fused (kernel launches) and fused_reductions (collective rounds) are
  // orthogonal; combined they must still match the plain solve bitwise.
  auto a = la::poisson2d(12, 12);
  la::CsrOperator op(a);
  la::JacobiPreconditioner jacobi(a);
  std::vector<double> b(a.rows(), 1.0);
  auto solve = [&](bool fuse_kernels, bool fuse_rounds,
                   std::vector<double>& x) {
    auto ctx = core::make_seq();
    x.assign(a.rows(), 0.0);
    la::SolveOptions opts;
    opts.max_iters = 60;
    opts.rel_tol = 1e-10;
    opts.fused = fuse_kernels;
    opts.fused_reductions = fuse_rounds;
    return la::cg(ctx, op, jacobi, b, x, opts);
  };
  std::vector<double> x00, x01, x10, x11;
  solve(false, false, x00);
  solve(false, true, x01);
  solve(true, false, x10);
  solve(true, true, x11);
  EXPECT_EQ(x00, x01);
  EXPECT_EQ(x00, x10);
  EXPECT_EQ(x00, x11);
}

TEST(Net, ReplicatedMdConservesAndMatchesSingleRank) {
  md::ReplicatedConfig cfg;
  cfg.per_side = 4;
  cfg.steps = 10;
  const auto one = md::replicated_md_run(1, cfg);
  const auto four = md::replicated_md_run(4, cfg);
  EXPECT_EQ(one.n, four.n);
  // Different partial-sum association across rank counts: equal to
  // rounding, not bitwise.
  const double e1 = one.potential + one.kinetic;
  const double e4 = four.potential + four.kinetic;
  EXPECT_NEAR(e4, e1, 1e-8 * std::abs(e1) + 1e-10);
  EXPECT_NEAR(four.temperature, one.temperature, 1e-9);
  EXPECT_EQ(one.net.messages, 0u);  // single rank: tree sends nothing
}

}  // namespace
