// Tests for the message-passing substrate: point-to-point semantics,
// collectives, traffic accounting, and a real distributed 1D wave solve
// with halo exchange that must match the single-rank run exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "mpi/comm.hpp"
#include "obs/metrics.hpp"
#include "resil/fault.hpp"
#include "stencil/distributed.hpp"
#include "stencil/wave.hpp"

namespace {

using namespace coe;

TEST(Mpi, RingPassesTokenOnce) {
  const int ranks = 5;
  std::vector<double> seen(ranks, -1.0);
  auto stats = mpi::run(ranks, [&](mpi::Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    if (comm.rank() == 0) {
      comm.send(next, 1, {42.0});
      seen[0] = comm.recv(prev, 1)[0];
    } else {
      const double token = comm.recv(prev, 1)[0];
      seen[static_cast<std::size_t>(comm.rank())] = token;
      comm.send(next, 1, {token + 1.0});
    }
  });
  // Token increments around the ring: rank r sees 42 + (r - 1).
  for (int r = 1; r < ranks; ++r) {
    EXPECT_DOUBLE_EQ(seen[static_cast<std::size_t>(r)], 42.0 + (r - 1));
  }
  EXPECT_DOUBLE_EQ(seen[0], 42.0 + (ranks - 1));
  EXPECT_EQ(stats.messages, static_cast<std::size_t>(ranks));
}

TEST(Mpi, TaggedMessagesDoNotCross) {
  auto stats = mpi::run(2, [&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/7, {7.0});
      comm.send(1, /*tag=*/9, {9.0});
    } else {
      // Receive in the opposite order of sending: tags must select.
      EXPECT_DOUBLE_EQ(comm.recv(0, 9)[0], 9.0);
      EXPECT_DOUBLE_EQ(comm.recv(0, 7)[0], 7.0);
    }
  });
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_DOUBLE_EQ(stats.bytes, 16.0);
}

TEST(Mpi, AllreduceSumsVectors) {
  const int ranks = 7;
  auto stats = mpi::run(ranks, [&](mpi::Communicator& comm) {
    std::vector<double> v{double(comm.rank()), 1.0};
    comm.allreduce_sum(v);
    EXPECT_DOUBLE_EQ(v[0], double(ranks) * double(ranks - 1) / 2.0);
    EXPECT_DOUBLE_EQ(v[1], double(ranks));
    // Repeated reductions stay consistent (epoch handling).
    for (int it = 0; it < 20; ++it) {
      const double s = comm.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(s, double(ranks));
    }
  });
  EXPECT_EQ(stats.allreduces, 21u);
}

TEST(Mpi, AllreduceMax) {
  mpi::run(6, [&](mpi::Communicator& comm) {
    const double m = comm.allreduce_max(double(comm.rank() * comm.rank()));
    EXPECT_DOUBLE_EQ(m, 25.0);
    // The vector overload reduces each element exactly as the scalar one.
    const double mine = std::sin(double(comm.rank() + 1)) * 1e3;
    const double scalar = comm.allreduce_max(mine);
    std::vector<double> v{mine, -mine};
    comm.allreduce_max(v);
    EXPECT_EQ(v[0], scalar);  // bitwise
    EXPECT_EQ(v[1], comm.allreduce_max(-mine));
  });
}

TEST(Mpi, BarrierSynchronizes) {
  std::atomic<int> before{0}, after_min{100};
  mpi::run(4, [&](mpi::Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    // Everyone incremented before anyone proceeds.
    after_min.store(std::min(after_min.load(), before.load()));
    (void)comm;
  });
  EXPECT_EQ(after_min.load(), 4);
}

TEST(Mpi, ExceptionsPropagate) {
  EXPECT_THROW(mpi::run(3,
                        [](mpi::Communicator& comm) {
                          comm.barrier();
                          if (comm.rank() == 1) {
                            throw std::runtime_error("rank 1 failed");
                          }
                        }),
               std::runtime_error);
}

TEST(Mpi, DistributedWaveMatchesSingleRank) {
  // 1D second-order wave equation split across 4 ranks with 1-cell halo
  // exchange each step; must match the serial solve exactly.
  const std::size_t n = 64;
  const int steps = 40;
  const double c2dt2 = 0.2;

  auto serial = [&] {
    std::vector<double> u(n), up(n), un(n);
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = up[i] = std::sin(2.0 * M_PI * double(i) / double(n));
    }
    for (int s = 0; s < steps; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        const double l = u[(i + n - 1) % n], r = u[(i + 1) % n];
        un[i] = 2.0 * u[i] - up[i] + c2dt2 * (l - 2.0 * u[i] + r);
      }
      up = u;
      u = un;
    }
    return u;
  }();

  const int ranks = 4;
  const std::size_t local = n / ranks;
  std::vector<double> distributed(n, 0.0);
  mpi::run(ranks, [&](mpi::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const int left = (comm.rank() + ranks - 1) % ranks;
    const int right = (comm.rank() + 1) % ranks;
    std::vector<double> u(local + 2), up(local + 2), un(local + 2);
    for (std::size_t i = 0; i < local; ++i) {
      const std::size_t gi = r * local + i;
      u[i + 1] = up[i + 1] =
          std::sin(2.0 * M_PI * double(gi) / double(n));
    }
    for (int s = 0; s < steps; ++s) {
      // Halo exchange (tag by direction).
      comm.send(left, 10, {u[1]});
      comm.send(right, 11, {u[local]});
      u[local + 1] = comm.recv(right, 10)[0];
      u[0] = comm.recv(left, 11)[0];
      for (std::size_t i = 1; i <= local; ++i) {
        un[i] = 2.0 * u[i] - up[i] +
                c2dt2 * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
      }
      up = u;
      u = un;
    }
    for (std::size_t i = 0; i < local; ++i) {
      distributed[r * local + i] = u[i + 1];
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(distributed[i], serial[i], 1e-13) << "cell " << i;
  }
}

TEST(Mpi, TrafficPricedOnClusterModel) {
  auto stats = mpi::run(4, [&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>(1000, 1.0));
    } else if (comm.rank() == 1) {
      (void)comm.recv(0, 0);
    }
  });
  const auto net = hsim::clusters::sierra(4);
  const double t = stats.modeled_time(net);
  EXPECT_NEAR(t, net.alpha + net.beta * 8000.0, 1e-12);
}


TEST(Mpi, Distributed3dWaveMatchesSerialSolver) {
  // The slab-decomposed 4th-order solver must match the serial WaveSolver
  // to rounding (same arithmetic per point, halo values identical).
  stencil::DistributedWaveConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 12;
  cfg.steps = 15;
  auto u0 = [](double x, double y, double z) {
    return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
  };
  auto dist = stencil::distributed_wave_run(4, cfg, u0);
  EXPECT_GT(dist.traffic.messages, 0u);

  auto ctx = core::make_seq();
  stencil::WaveSolver serial(ctx, cfg.nx, cfg.ny, cfg.nz, cfg.length,
                             cfg.c, {});
  // WaveSolver's grid spacing uses nx; match configs so h agrees.
  serial.set_initial(u0, [](double, double, double) { return 0.0; },
                     dist.dt);
  for (int s = 0; s < cfg.steps; ++s) serial.step(dist.dt);
  for (std::size_t i = 0; i < cfg.nx; ++i) {
    for (std::size_t j = 0; j < cfg.ny; ++j) {
      for (std::size_t k = 0; k < cfg.nz; ++k) {
        EXPECT_NEAR(dist.field[(i * cfg.ny + j) * cfg.nz + k],
                    serial.at(i, j, k), 1e-12)
            << i << "," << j << "," << k;
      }
    }
  }
}

TEST(MpiFailure, MismatchedTagRecvTimesOutInsteadOfHanging) {
  // No rank ever sends tag 99: the recv must surface as CommTimeout within
  // the configured deadline, never an indefinite hang.
  mpi::RunOptions opts;
  opts.timeout_seconds = 0.2;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(mpi::run(2, opts,
                        [](mpi::Communicator& comm) {
                          if (comm.rank() == 0) comm.send(1, 1, {1.0});
                          if (comm.rank() == 1) (void)comm.recv(0, 99);
                        }),
               mpi::CommTimeout);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 10.0);
}

TEST(MpiFailure, DeadlineRetriesBackOffThenSurfaceTimeout) {
  // A recv with no matching send exhausts every backoff retry before the
  // CommTimeout surfaces, and the retries are visible in the metrics.
  mpi::RunOptions opts;
  opts.timeout_seconds = 0.05;
  opts.max_retries = 3;
  opts.retry_backoff_seconds = 0.02;
  obs::MetricsRegistry metrics;
  opts.metrics = &metrics;
  EXPECT_THROW(mpi::run(2, opts,
                        [](mpi::Communicator& comm) {
                          if (comm.rank() == 1) (void)comm.recv(0, 77);
                        }),
               mpi::CommTimeout);
  EXPECT_DOUBLE_EQ(metrics.counter("mpi.retries"), 3.0);
  EXPECT_DOUBLE_EQ(metrics.counter("mpi.timeouts"), 1.0);
}

TEST(MpiFailure, LateSenderIsAbsorbedByRetries) {
  // The sender shows up well after the receiver's first deadline: the
  // exponential backoff keeps re-arming the wait until the message lands,
  // so the operation succeeds instead of raising CommTimeout.
  mpi::RunOptions opts;
  opts.timeout_seconds = 0.02;
  opts.max_retries = 10;
  opts.retry_backoff_seconds = 0.02;
  obs::MetricsRegistry metrics;
  opts.metrics = &metrics;
  double got = 0.0;
  auto stats = mpi::run(2, opts, [&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      comm.send(1, 5, {9.25});
    } else {
      got = comm.recv(0, 5)[0];
    }
  });
  EXPECT_DOUBLE_EQ(got, 9.25);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_DOUBLE_EQ(metrics.counter("mpi.retries"),
                   static_cast<double>(stats.retries));
  EXPECT_DOUBLE_EQ(metrics.counter("mpi.timeouts"), 0.0);
}

TEST(MpiFailure, InjectedRankFailurePropagatesOutOfRun) {
  // A hook with a tiny op budget kills some rank inside its first few
  // communicator operations; run() must rethrow the RankFailure.
  mpi::RunOptions opts;
  opts.timeout_seconds = 5.0;
  opts.fault_hook = resil::make_rank_fault_hook(4, /*mean_ops=*/2.0,
                                                /*seed=*/11);
  try {
    mpi::run(4, opts, [](mpi::Communicator& comm) {
      for (int it = 0; it < 50; ++it) {
        comm.barrier();
        (void)comm.allreduce_sum(1.0);
      }
    });
    FAIL() << "expected resil::RankFailure";
  } catch (const resil::RankFailure& e) {
    EXPECT_GE(e.rank, 0);
    EXPECT_LT(e.rank, 4);
  }
}

TEST(MpiFailure, SurvivorsUnblockWhenPeerDiesBeforeBarrier) {
  // Rank 1 dies before entering the barrier. Survivors must wake with
  // PeerFailure immediately (well before the 30 s deadline), and run()
  // must rethrow rank 1's original error, not the secondary failures.
  std::atomic<int> peer_failures{0};
  const auto t0 = std::chrono::steady_clock::now();
  try {
    mpi::run(4, [&](mpi::Communicator& comm) {
      if (comm.rank() == 1) throw std::runtime_error("boom");
      try {
        comm.barrier();
      } catch (const mpi::PeerFailure&) {
        peer_failures.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected the original error to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(peer_failures.load(), 3);
  EXPECT_LT(elapsed, 10.0);
}

TEST(MpiFailure, GenerousOpBudgetLeavesRunClean) {
  // Draws beyond max_ops never fire: with a huge mean and a tight cap the
  // hook is installed but the run completes normally.
  mpi::RunOptions opts;
  opts.fault_hook =
      resil::make_rank_fault_hook(3, /*mean_ops=*/1e9, /*seed=*/1,
                                  /*max_ops=*/1e6);
  auto stats = mpi::run(3, opts, [](mpi::Communicator& comm) {
    comm.barrier();
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(1.0), 3.0);
  });
  EXPECT_EQ(stats.barriers, 1u);
}

TEST(Mpi, DistributedWaveRankCountInvariant) {
  // 1, 2, and 4 ranks must all produce the same field.
  stencil::DistributedWaveConfig cfg;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 8;
  cfg.steps = 10;
  auto u0 = [](double x, double y, double z) {
    return std::sin(M_PI * x) * std::sin(2.0 * M_PI * y) *
           std::sin(M_PI * z);
  };
  auto r1 = stencil::distributed_wave_run(1, cfg, u0);
  auto r2 = stencil::distributed_wave_run(2, cfg, u0);
  auto r4 = stencil::distributed_wave_run(4, cfg, u0);
  EXPECT_EQ(r1.traffic.messages, 0u);
  for (std::size_t i = 0; i < r1.field.size(); ++i) {
    EXPECT_NEAR(r1.field[i], r2.field[i], 1e-13);
    EXPECT_NEAR(r1.field[i], r4.field[i], 1e-13);
  }
}

}  // namespace
