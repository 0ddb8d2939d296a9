// Tests for coe::phoenix (DESIGN.md §17): the distributed checkpoint
// store, the rank-kill injectors, the mpi repair primitives under kills
// swept across every protocol phase, and the survivable wave/MD/CG drivers'
// bitwise ride-through-failure guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "la/la.hpp"
#include "md/replicated.hpp"
#include "md/survivable.hpp"
#include "net/net.hpp"
#include "obs/metrics.hpp"
#include "phoenix/phoenix.hpp"
#include "resil/resil.hpp"
#include "stencil/distributed.hpp"
#include "stencil/survivable.hpp"
#include "xray/xray.hpp"

namespace {

using namespace coe;

// ---------------------------------------------------------------------------
// DistributedCheckpointStore units
// ---------------------------------------------------------------------------

TEST(PhoenixStore, TwoPhaseCommitVisibilityAndPrune) {
  phoenix::DistributedCheckpointStore s;
  EXPECT_EQ(s.latest_committed(), phoenix::DistributedCheckpointStore::kNone);

  s.stage(10, 0, 4, {1.0, 2.0});
  // Staged but uncommitted blobs are invisible.
  EXPECT_FALSE(s.has(10, 0));
  EXPECT_EQ(s.latest_committed(), phoenix::DistributedCheckpointStore::kNone);

  s.commit(10);
  EXPECT_TRUE(s.has(10, 0));
  EXPECT_EQ(s.latest_committed(), 10u);

  std::vector<double> out;
  std::size_t step = 0;
  EXPECT_EQ(s.fetch(10, 0, &out, &step),
            phoenix::DistributedCheckpointStore::Fetch::Ok);
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(step, 4u);

  // Double buffering: only the newest two committed generations survive.
  s.stage(20, 0, 8, {3.0});
  s.commit(20);
  s.stage(30, 0, 12, {4.0});
  s.commit(30);
  EXPECT_FALSE(s.has(10, 0));
  EXPECT_TRUE(s.has(20, 0));
  EXPECT_TRUE(s.has(30, 0));
  EXPECT_EQ(s.latest_committed(), 30u);
  EXPECT_EQ(s.stats().commits, 3u);
}

TEST(PhoenixStore, AbortPendingDropsOnlyTheStagedGeneration) {
  phoenix::DistributedCheckpointStore s;
  s.stage(5, 1, 2, {7.0});
  s.commit(5);
  s.stage(9, 1, 3, {8.0});
  s.abort_pending();
  s.commit(9);  // nothing left to publish
  EXPECT_FALSE(s.has(9, 1));
  EXPECT_TRUE(s.has(5, 1));
  EXPECT_EQ(s.latest_committed(), 5u);
  EXPECT_EQ(s.stats().aborted, 1u);
}

TEST(PhoenixStore, CrcRefusalFallsBackToBuddyCopy) {
  phoenix::DistributedCheckpointStore own, buddy;
  const std::vector<double> blob{1.5, -2.5, 3.5};
  own.stage(7, 2, 6, blob);
  own.commit(7);
  buddy.stage(7, 2, 6, blob);
  buddy.commit(7);

  // Flip a word in the owner's committed copy; the stage-time CRC stays.
  (*own.mutable_payload(7, 2))[1] = 99.0;

  std::vector<double> out;
  std::size_t step = 0;
  EXPECT_EQ(own.fetch(7, 2, &out, &step),
            phoenix::DistributedCheckpointStore::Fetch::Refused);
  EXPECT_EQ(own.stats().refused, 1u);
  EXPECT_EQ(own.fetch(7, 99, &out, &step),
            phoenix::DistributedCheckpointStore::Fetch::Missing);

  // The buddy copy still serves, bit-exact.
  EXPECT_EQ(buddy.fetch(7, 2, &out, &step),
            phoenix::DistributedCheckpointStore::Fetch::Ok);
  EXPECT_EQ(out, blob);
  EXPECT_EQ(step, 6u);
}

// ---------------------------------------------------------------------------
// Kill injectors
// ---------------------------------------------------------------------------

TEST(PhoenixFailure, KillRankAtFiresExactlyAtTheChosenOp) {
  auto hook = phoenix::kill_rank_at(2, 5);
  for (std::size_t op = 1; op <= 10; ++op) {
    EXPECT_EQ(hook(2, op), op == 5);
    EXPECT_FALSE(hook(1, op));
  }
  // at_op == 0 never fires.
  auto never = phoenix::kill_rank_at(0, 0);
  for (std::size_t op = 1; op <= 4; ++op) EXPECT_FALSE(never(0, op));
}

TEST(PhoenixFailure, SeededKillsAreDeterministicAndDistinct) {
  auto a = phoenix::seeded_kills(8, 3, 42, 5, 50);
  auto b = phoenix::seeded_kills(8, 3, 42, 5, 50);
  std::set<int> victims_a, victims_b;
  for (int r = 0; r < 8; ++r) {
    for (std::size_t op = 1; op <= 60; ++op) {
      if (a(r, op)) {
        victims_a.insert(r);
        EXPECT_GE(op, 5u);
        EXPECT_LE(op, 50u);
      }
      if (b(r, op)) victims_b.insert(r);
    }
  }
  EXPECT_EQ(victims_a.size(), 3u);
  EXPECT_EQ(victims_a, victims_b);
}

// ---------------------------------------------------------------------------
// mpi repair primitives: waitall containment and double-delivery
// ---------------------------------------------------------------------------

// Satellite (a): a failure waking waitall mid-flight must keep completed
// payloads readable, cancel the pending irecvs, and the subsequent repair
// must purge the unconsumed in-flight message so a same-tag retry can never
// observe the stale payload (double delivery).
TEST(PhoenixMpi, WaitallContainmentAndRepairKillsDoubleDelivery) {
  mpi::RunOptions opts;
  opts.recoverable = true;
  opts.timeout_seconds = 5.0;
  opts.max_retries = 1;
  // Rank 2 dies at its second op — after consuming rank 0's go-signal, so
  // the death deterministically lands after rank 0's sends are deposited.
  opts.fault_hook = phoenix::kill_rank_at(2, 2);

  std::mutex mtx;
  std::vector<mpi::PurgedMessage> purged;
  std::vector<double> delivered;

  mpi::run(3, opts, [&](mpi::Communicator& comm) {
    const int r = comm.rank();
    if (r == 2) {
      comm.recv(0, 9);          // go-signal: rank 0 has sent tags 4 and 5
      comm.send(0, 88, {0.0});  // killed on entry: never deposited
      return;
    }
    auto recover = [&](bool leader) {
      for (;;) {
        try {
          const int before = comm.epoch();
          comm.revoke();
          std::vector<int> dead;
          comm.agree_min(0, &dead);
          EXPECT_EQ(dead, (std::vector<int>{2}));
          if (leader) {
            mpi::RepairPlan plan;
            plan.retire = dead;
            auto res = comm.repair(plan);
            std::lock_guard<std::mutex> lk(mtx);
            purged = res.purged;
          } else {
            comm.await_repair(before);
          }
          return;
        } catch (const mpi::RankFailed&) {
        }
      }
    };
    if (r == 0) {
      comm.send(1, 4, {4.0});
      comm.send(1, 5, {1.0});  // stale: purged by the repair, never seen
      comm.send(2, 9, {0.0});  // go-signal: rank 2 may die now
      try {
        comm.recv(1, 77);  // parked: woken by the revocation
        ADD_FAILURE() << "recv should have been interrupted";
      } catch (const mpi::RankFailed&) {
      }
      recover(/*leader=*/true);
      comm.send(1, 5, {99.0});
    } else {  // r == 1
      std::vector<mpi::Request> rs(2);
      rs[0] = comm.irecv(0, 4);
      rs[1] = comm.irecv(2, 99);  // never sent: pending when the kill lands
      // Complete the first receive before the batch wait: tag 4 is already
      // (or about to be) deposited, and a deliverable operation completes
      // even with a failure pending.
      comm.wait(rs[0]);
      try {
        comm.waitall(rs);
        ADD_FAILURE() << "waitall should have raised RankFailed";
      } catch (const mpi::RankFailed&) {
      }
      // Completed request keeps its payload; the pending one is cancelled.
      EXPECT_TRUE(rs[0].done());
      EXPECT_FALSE(rs[0].cancelled());
      EXPECT_EQ(rs[0].data(), (std::vector<double>{4.0}));
      EXPECT_TRUE(rs[1].cancelled());
      EXPECT_TRUE(rs[1].data().empty());
      recover(/*leader=*/false);
      auto v = comm.recv(0, 5);
      std::lock_guard<std::mutex> lk(mtx);
      delivered = v;
    }
  });

  // The post-repair receive saw the fresh payload, not the purged one.
  EXPECT_EQ(delivered, (std::vector<double>{99.0}));
  ASSERT_EQ(purged.size(), 1u);
  EXPECT_EQ(purged[0].src, 0);
  EXPECT_EQ(purged[0].dest, 1);
  EXPECT_EQ(purged[0].tag, 5);
  EXPECT_EQ(purged[0].epoch, 0);
  EXPECT_EQ(purged[0].bytes, 8.0);
}

TEST(PhoenixMpi, DeliverableRecvCompletesAfterPeerDeath) {
  // "Pred wins" holds at operation entry too: a receive whose message was
  // queued before a peer died completes even when its rank reaches it only
  // after the death is known; the failure surfaces at the next operation
  // that cannot complete.
  mpi::RunOptions opts;
  opts.recoverable = true;
  opts.timeout_seconds = 5.0;
  opts.max_retries = 1;
  opts.fault_hook = phoenix::kill_rank_at(2, 2);

  std::vector<double> got;
  mpi::run(3, opts, [&](mpi::Communicator& comm) {
    const int r = comm.rank();
    if (r == 2) {
      comm.recv(0, 9);          // go-signal: rank 0 has sent tag 4
      comm.send(0, 88, {0.0});  // killed on entry
      return;
    }
    if (r == 0) {
      comm.send(1, 4, {4.0});
      comm.send(2, 9, {0.0});
      EXPECT_THROW(comm.recv(1, 77), mpi::RankFailed);
    } else {
      while (comm.failed_ranks().empty()) std::this_thread::yield();
      got = comm.recv(0, 4);
      EXPECT_THROW(comm.recv(2, 99), mpi::RankFailed);
    }
    const int before = comm.epoch();
    comm.revoke();
    std::vector<int> dead;
    comm.agree_min(0, &dead);
    EXPECT_EQ(dead, (std::vector<int>{2}));
    if (r == 0) {
      mpi::RepairPlan plan;
      plan.retire = dead;
      comm.repair(plan);
    } else {
      comm.await_repair(before);
    }
  });
  EXPECT_EQ(got, (std::vector<double>{4.0}));
}

// ---------------------------------------------------------------------------
// Satellite (c), part 1: kill a rank at every phase of recursive-doubling
// allreduce. Survivors must always reach agreement (or the recoverable
// RankFailed) and never deadlock, across pof2 and non-pof2 world sizes and
// victim positions.
// ---------------------------------------------------------------------------

TEST(PhoenixMpi, RecursiveDoublingKillSweepAlwaysReachesAgreement) {
  for (int ws : {4, 5, 8}) {
    const std::vector<int> victims = {0, ws / 2, ws - 1};
    for (int victim : victims) {
      for (std::size_t at_op = 1; at_op <= 9; ++at_op) {
        mpi::RunOptions opts;
        opts.recoverable = true;
        opts.timeout_seconds = 5.0;
        opts.max_retries = 1;
        opts.fault_hook = phoenix::kill_rank_at(victim, at_op);

        std::mutex mtx;
        std::vector<double> totals;
        mpi::run(ws, opts, [&](mpi::Communicator& comm) {
          std::set<int> alive;
          for (int r = 0; r < ws; ++r) alive.insert(r);
          auto recover = [&] {
            for (;;) {
              try {
                const int before = comm.epoch();
                comm.revoke();
                std::vector<int> dead;
                comm.agree_min(0, &dead);
                for (int d : dead) alive.erase(d);
                if (comm.rank() == *alive.begin()) {
                  mpi::RepairPlan plan;
                  plan.retire = dead;
                  comm.repair(plan);
                } else {
                  comm.await_repair(before);
                }
                return;
              } catch (const mpi::RankFailed&) {
              }
            }
          };
          std::vector<double> v = {1.0};
          try {
            net::allreduce_sum(comm, v, net::AllreduceAlgo::RecursiveDoubling);
          } catch (const mpi::RankFailed&) {
            recover();
          }
          // Fault-tolerant completion: agree on the survivor count via the
          // repaired world's collective (retried through further repairs).
          double total = -1.0;
          while (total < 0.0) {
            try {
              total = comm.allreduce_sum(1.0);
            } catch (const mpi::RankFailed&) {
              recover();
            }
          }
          std::lock_guard<std::mutex> lk(mtx);
          totals.push_back(total);
        });

        // Every completing rank is a survivor and all agree on the same
        // total: the number of survivors.
        ASSERT_FALSE(totals.empty())
            << "ws=" << ws << " victim=" << victim << " op=" << at_op;
        for (double t : totals) {
          EXPECT_EQ(t, static_cast<double>(totals.size()))
              << "ws=" << ws << " victim=" << victim << " op=" << at_op;
        }
        EXPECT_GE(totals.size(), static_cast<std::size_t>(ws - 1));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Survivable wave
// ---------------------------------------------------------------------------

double wave_u0(double x, double y, double z) {
  return std::sin(M_PI * x) * std::sin(2.0 * M_PI * y) * std::sin(M_PI * z);
}

stencil::SurvivableWaveConfig wave_cfg(int workers, int spares,
                                       phoenix::RepairPolicy policy) {
  stencil::SurvivableWaveConfig c;
  c.nx = 20;  // divides by 4 and by 5
  c.ny = 4;
  c.nz = 4;
  c.steps = 5;
  c.workers = workers;
  c.spares = spares;
  c.policy = policy;
  c.ckpt_every = 2;
  c.mpi.timeout_seconds = 5.0;
  c.mpi.max_retries = 1;
  return c;
}

TEST(PhoenixWave, FaultFreeSurvivableMatchesDistributedBitwise) {
  auto cfg = wave_cfg(4, 0, phoenix::RepairPolicy::Shrink);
  auto sur = stencil::survivable_wave_run(cfg, wave_u0);

  stencil::DistributedWaveConfig dc;
  dc.nx = cfg.nx;
  dc.ny = cfg.ny;
  dc.nz = cfg.nz;
  dc.steps = cfg.steps;
  auto dist = stencil::distributed_wave_run(4, dc, wave_u0);

  EXPECT_EQ(sur.dt, dist.dt);
  ASSERT_EQ(sur.field.size(), dist.field.size());
  EXPECT_EQ(sur.field, dist.field);
  EXPECT_EQ(sur.report.stats.kills, 0u);
  EXPECT_GT(sur.report.stats.ckpt_commits, 0u);
}

TEST(PhoenixMd, FaultFreeSurvivableMatchesReplicatedBitwise) {
  // Both drivers step the same MdReplica; on power-of-two counts the part
  // tree and recursive doubling associate every sum the same way.
  for (const int workers : {1, 2, 4}) {
    md::SurvivableMdConfig sc;
    sc.per_side = 5;
    sc.steps = 20;
    sc.workers = workers;
    sc.mpi.timeout_seconds = 5.0;
    auto sur = md::survivable_md_run(sc);

    md::ReplicatedConfig rc;
    rc.per_side = sc.per_side;
    rc.steps = sc.steps;
    auto rep = md::replicated_md_run(workers, rc);

    SCOPED_TRACE(workers);
    EXPECT_EQ(sur.report.stats.kills, 0u);
    EXPECT_EQ(sur.n, rep.n);
    EXPECT_EQ(sur.potential, rep.potential);
    EXPECT_EQ(sur.kinetic, rep.kinetic);
    EXPECT_EQ(sur.virial, rep.virial);
  }
}

TEST(PhoenixWave, SpareSubstitutionRecoversBitwise) {
  auto cfg = wave_cfg(4, 1, phoenix::RepairPolicy::Spare);
  auto ref = stencil::survivable_wave_run(cfg, wave_u0);
  ASSERT_EQ(ref.report.stats.kills, 0u);

  // Op 22 is rank 1's second commit vote: dying there guarantees its ring
  // predecessor already advanced past the agreed generation, so rollback
  // provably replays work (replayed_steps > 0 is deterministic).
  cfg.fault_hook = phoenix::kill_rank_at(1, 22);
  auto r = stencil::survivable_wave_run(cfg, wave_u0);

  EXPECT_EQ(r.report.stats.kills, 1u);
  EXPECT_EQ(r.report.dead, (std::vector<int>{1}));
  EXPECT_GE(r.report.stats.repairs, 1u);
  EXPECT_EQ(r.report.stats.adoptions, 1u);
  EXPECT_EQ(r.report.stats.retirements, 0u);
  EXPECT_GT(r.report.stats.restores, 0u);
  EXPECT_GT(r.report.stats.replayed_steps, 0u);
  EXPECT_GE(r.report.stats.shipped_msgs, 1u);
  EXPECT_GE(r.report.epochs, 1);
  EXPECT_EQ(r.field, ref.field);
}

TEST(PhoenixWave, ShrinkRecoversBitwise) {
  auto cfg = wave_cfg(4, 0, phoenix::RepairPolicy::Shrink);
  auto ref = stencil::survivable_wave_run(cfg, wave_u0);

  cfg.fault_hook = phoenix::kill_rank_at(2, 16);
  auto r = stencil::survivable_wave_run(cfg, wave_u0);

  EXPECT_EQ(r.report.stats.kills, 1u);
  EXPECT_GE(r.report.stats.repairs, 1u);
  EXPECT_EQ(r.report.stats.retirements, 1u);
  EXPECT_EQ(r.report.stats.adoptions, 0u);
  EXPECT_GT(r.report.stats.restores, 0u);
  // The shrunken world computes the identical global field: parts, not
  // ranks, own the arithmetic.
  EXPECT_EQ(r.field, ref.field);
}

// Satellite (c), part 2: kill a rank at every op index through the run —
// covering every phase of the buddy-exchange two-phase commit (stage, ship,
// receive, vote) as well as the halo phases around it — for pof2 and
// non-pof2 worlds and several victim positions. Every run must either ride
// through bitwise or (never, with a single kill and a spare in reserve)
// abort loudly; silent divergence and deadlock are the failure modes.
TEST(PhoenixWave, KillEveryPhaseSweepSpare) {
  for (int ws : {4, 5}) {
    auto base = wave_cfg(ws, 2, phoenix::RepairPolicy::Spare);
    auto ref = stencil::survivable_wave_run(base, wave_u0);
    const std::vector<int> victims = {0, ws / 2, ws - 1};
    for (int victim : victims) {
      for (std::size_t at_op = 1; at_op <= 24; ++at_op) {
        auto cfg = base;
        cfg.fault_hook = phoenix::kill_rank_at(victim, at_op);
        auto r = stencil::survivable_wave_run(cfg, wave_u0);
        EXPECT_LE(r.report.stats.kills, 1u);
        EXPECT_EQ(r.field, ref.field)
            << "ws=" << ws << " victim=" << victim << " op=" << at_op;
      }
    }
  }
}

TEST(PhoenixWave, KillEveryPhaseSweepShrink) {
  auto base = wave_cfg(4, 0, phoenix::RepairPolicy::Shrink);
  auto ref = stencil::survivable_wave_run(base, wave_u0);
  for (int victim : {1, 3}) {
    for (std::size_t at_op = 1; at_op <= 20; ++at_op) {
      auto cfg = base;
      cfg.fault_hook = phoenix::kill_rank_at(victim, at_op);
      auto r = stencil::survivable_wave_run(cfg, wave_u0);
      EXPECT_EQ(r.field, ref.field)
          << "victim=" << victim << " op=" << at_op;
    }
  }
}

TEST(PhoenixWave, SecondKillDuringRecoveryStillBitwise) {
  auto cfg = wave_cfg(4, 2, phoenix::RepairPolicy::Spare);
  cfg.steps = 6;
  auto ref = stencil::survivable_wave_run(cfg, wave_u0);

  // Non-adjacent victims (their buddy holders survive), near-simultaneous:
  // the second death can land inside the first recovery round.
  auto h1 = phoenix::kill_rank_at(1, 16);
  auto h2 = phoenix::kill_rank_at(3, 17);
  cfg.fault_hook = [h1, h2](int r, std::size_t op) {
    return h1(r, op) || h2(r, op);
  };
  auto r = stencil::survivable_wave_run(cfg, wave_u0);

  EXPECT_EQ(r.report.stats.kills, 2u);
  EXPECT_EQ(r.report.dead, (std::vector<int>{1, 3}));
  EXPECT_EQ(r.report.stats.adoptions, 2u);
  EXPECT_EQ(r.field, ref.field);
}

TEST(PhoenixWave, BuddyPairLossIsUnrecoverable) {
  // Ranks 1 and 2 are ring-adjacent: rank 2 holds rank 1's buddy copies.
  // Killing both inside one commit window leaves no intact copy of part 1.
  auto cfg = wave_cfg(4, 0, phoenix::RepairPolicy::Shrink);
  cfg.steps = 5;
  cfg.ckpt_every = 3;
  auto h1 = phoenix::kill_rank_at(1, 18);
  auto h2 = phoenix::kill_rank_at(2, 18);
  cfg.fault_hook = [h1, h2](int r, std::size_t op) {
    return h1(r, op) || h2(r, op);
  };
  EXPECT_THROW(stencil::survivable_wave_run(cfg, wave_u0),
               phoenix::PhoenixUnrecoverable);
}

TEST(PhoenixWave, SpareExhaustionIsUnrecoverable) {
  auto cfg = wave_cfg(4, 1, phoenix::RepairPolicy::Spare);
  cfg.steps = 10;
  cfg.ckpt_every = 3;
  auto h1 = phoenix::kill_rank_at(1, 6);
  auto h2 = phoenix::kill_rank_at(3, 30);
  cfg.fault_hook = [h1, h2](int r, std::size_t op) {
    return h1(r, op) || h2(r, op);
  };
  EXPECT_THROW(stencil::survivable_wave_run(cfg, wave_u0),
               phoenix::PhoenixUnrecoverable);
}

TEST(PhoenixDriver, ConfigValidation) {
  phoenix::SurvivableConfig cfg;
  phoenix::SurvivableHooks hooks;
  EXPECT_THROW(phoenix::run_survivable(cfg, hooks), std::invalid_argument);

  auto wcfg = wave_cfg(4, 2, phoenix::RepairPolicy::Shrink);
  EXPECT_THROW(stencil::survivable_wave_run(wcfg, wave_u0),
               std::invalid_argument);  // shrink takes no spares
  auto bad = wave_cfg(3, 0, phoenix::RepairPolicy::Shrink);
  EXPECT_THROW(stencil::survivable_wave_run(bad, wave_u0),
               std::invalid_argument);  // nx % workers != 0
}

// ---------------------------------------------------------------------------
// Survivable MD
// ---------------------------------------------------------------------------

TEST(PhoenixMd, SpareRecoveryIsBitwise) {
  md::SurvivableMdConfig cfg;
  cfg.per_side = 3;
  cfg.steps = 6;
  cfg.workers = 4;
  cfg.spares = 1;
  cfg.policy = phoenix::RepairPolicy::Spare;
  cfg.ckpt_every = 3;
  cfg.mpi.timeout_seconds = 5.0;
  cfg.mpi.max_retries = 1;
  auto ref = md::survivable_md_run(cfg);
  ASSERT_EQ(ref.report.stats.kills, 0u);
  ASSERT_EQ(ref.n, 27u);

  // Op 30 is rank 2's second commit vote (4 tree ops/step, 3-op ckpts):
  // its buddy-recv at op 29 proves the ring predecessor reached step 6,
  // past the commit at step 3, so replayed_steps > 0 is deterministic.
  cfg.fault_hook = phoenix::kill_rank_at(2, 30);
  auto r = md::survivable_md_run(cfg);

  EXPECT_EQ(r.report.stats.kills, 1u);
  EXPECT_GT(r.report.stats.replayed_steps, 0u);
  // The whole trajectory — including the neighbor-list rebuild schedule —
  // replays to identical bits.
  EXPECT_EQ(r.potential, ref.potential);
  EXPECT_EQ(r.kinetic, ref.kinetic);
  EXPECT_EQ(r.virial, ref.virial);
  EXPECT_EQ(r.temperature, ref.temperature);
}

TEST(PhoenixMd, ShrinkRecoveryIsBitwise) {
  md::SurvivableMdConfig cfg;
  cfg.per_side = 3;
  cfg.steps = 5;
  cfg.workers = 3;  // non-pof2 part tree
  cfg.policy = phoenix::RepairPolicy::Shrink;
  cfg.ckpt_every = 2;
  cfg.mpi.timeout_seconds = 5.0;
  cfg.mpi.max_retries = 1;
  auto ref = md::survivable_md_run(cfg);

  cfg.fault_hook = phoenix::kill_rank_at(1, 14);
  auto r = md::survivable_md_run(cfg);

  EXPECT_EQ(r.report.stats.kills, 1u);
  EXPECT_EQ(r.report.stats.retirements, 1u);
  EXPECT_EQ(r.potential, ref.potential);
  EXPECT_EQ(r.kinetic, ref.kinetic);
  EXPECT_EQ(r.virial, ref.virial);
}

// ---------------------------------------------------------------------------
// Survivable Krylov
// ---------------------------------------------------------------------------

struct CgRunOut {
  std::map<int, std::vector<double>> x;  // by final rank id
  std::map<int, std::size_t> iters;
  phoenix::SurvivableReport report;
};

/// One survivable-CG part: a full replica of the system whose dots cover
/// rows [lo, hi), reduced in fused rounds.
struct CgPart final : resil::Checkpointable {
  CgPart(core::ExecContext& ctx, const la::CsrMatrix& a,
         const std::vector<double>& b, std::size_t lo, std::size_t hi)
      : op(a),
        prec(a),
        x(b.size(), 0.0),
        cg(ctx, op, prec, b, x, options(), lo, hi) {}
  static la::SolveOptions options() {
    la::SolveOptions opts;
    opts.rel_tol = 1e-10;
    opts.fused_reductions = true;
    return opts;
  }
  void save_state(std::vector<double>& out) const override {
    cg.save_state(out);
  }
  void restore_state(const std::vector<double>& in) override {
    cg.restore_state(in);
  }

  la::CsrOperator op;
  la::JacobiPreconditioner prec;
  std::vector<double> x;
  la::Pcg cg;
};

CgRunOut run_survivable_cg(const la::CsrMatrix& a,
                           const std::vector<double>& b, int workers,
                           int spares, int steps, int ckpt_every,
                           std::function<bool(int, std::size_t)> hook) {
  phoenix::SurvivableConfig cfg;
  cfg.workers = workers;
  cfg.spares = spares;
  cfg.policy = spares > 0 ? phoenix::RepairPolicy::Spare
                          : phoenix::RepairPolicy::Shrink;
  cfg.steps = steps;
  cfg.ckpt_every = ckpt_every;
  cfg.mpi.timeout_seconds = 5.0;
  cfg.mpi.max_retries = 1;
  cfg.fault_hook = std::move(hook);

  auto cgp = [](phoenix::RankContext& rc, int p) -> CgPart& {
    return static_cast<CgPart&>(rc.part(p));
  };

  phoenix::SurvivableHooks hooks;
  hooks.make = [&a, &b](phoenix::RankContext& rc, int part) {
    const std::size_t n = b.size();
    const auto np = static_cast<std::size_t>(rc.nparts());
    const auto p = static_cast<std::size_t>(part);
    return std::make_unique<CgPart>(rc.ctx(), a, b, n * p / np,
                                    n * (p + 1) / np);
  };
  // Step 0 is the residual init, every later step one iteration. The owned
  // parts run in lockstep, so they reach each reduction round together.
  hooks.step = [cgp](phoenix::RankContext& rc, int step) {
    auto buf = [&](int p) { return cgp(rc, p).cg.reduction(); };
    bool more = true;
    for (int p : rc.owned()) {
      if (step == 0) {
        cgp(rc, p).cg.stage_start();
      } else {
        more = cgp(rc, p).cg.advance();
      }
    }
    while (more) {
      rc.part_allreduce(phoenix::RankContext::kChanApp, buf);
      for (int p : rc.owned()) more = cgp(rc, p).cg.advance();
    }
  };

  CgRunOut out;
  std::mutex mtx;
  hooks.finish = [&, cgp](phoenix::RankContext& rc) {
    std::lock_guard<std::mutex> lk(mtx);
    for (int p : rc.owned()) {
      out.x[p] = cgp(rc, p).x;
      out.iters[p] = cgp(rc, p).cg.iteration();
    }
  };
  out.report = phoenix::run_survivable(cfg, hooks);
  return out;
}

TEST(PhoenixKrylov, PartCgSurvivesKillBitwise) {
  auto a = la::poisson2d(8, 8);
  const std::size_t n = a.rows();
  std::vector<double> x_true(n), b(n);
  core::Rng rng(11);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  a.spmv(ctx, x_true, b);

  auto ref = run_survivable_cg(a, b, 4, 1, 40, 8, {});
  ASSERT_EQ(ref.report.stats.kills, 0u);
  ASSERT_EQ(ref.x.size(), 4u);
  // Replicated parts converge to the identical iterate.
  for (int p = 1; p < 4; ++p) {
    EXPECT_EQ(ref.x.at(p), ref.x.at(0));
    EXPECT_EQ(ref.iters.at(p), ref.iters.at(0));
  }
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(ref.x.at(0)[i], x_true[i], 1e-6);

  auto r = run_survivable_cg(a, b, 4, 1, 40, 8,
                             phoenix::kill_rank_at(1, 40));
  EXPECT_EQ(r.report.stats.kills, 1u);
  EXPECT_GT(r.report.stats.replayed_steps, 0u);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(r.x.at(p), ref.x.at(p)) << "part " << p;
    EXPECT_EQ(r.iters.at(p), ref.iters.at(p));
  }

  // One part is the single-domain solve with fused reduction rounds, bit
  // for bit: the survivable driver adds no arithmetic of its own.
  const int steps = 80;
  auto one = run_survivable_cg(a, b, 1, 0, steps, 0, {});
  la::CsrOperator op(a);
  la::JacobiPreconditioner prec(a);
  la::SolveOptions opts;
  opts.max_iters = steps - 1;  // step 0 is the residual init
  opts.rel_tol = 1e-10;
  opts.fused_reductions = true;
  std::vector<double> x_plain(n, 0.0);
  auto plain_ctx = core::make_seq();
  const auto plain = la::cg(plain_ctx, op, prec, b, x_plain, opts);
  ASSERT_TRUE(plain.converged);
  EXPECT_EQ(one.x.at(0), x_plain);
  EXPECT_EQ(one.iters.at(0), plain.iterations);
}

// The la::cg wiring: with a pof2 part count the replicated tree-sum and the
// 1/nparts rescale are exact, so the distributed solve is bitwise the
// single-domain solve.
TEST(PhoenixKrylov, ReplicatedReduceMatchesPlainCgBitwise) {
  auto a = la::poisson2d(6, 6);
  const std::size_t n = a.rows();
  std::vector<double> x_true(n), b(n);
  core::Rng rng(23);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  auto ctx0 = core::make_seq();
  a.spmv(ctx0, x_true, b);

  la::CsrOperator op(a);
  la::JacobiPreconditioner prec(a);
  la::SolveOptions plain_opts;
  plain_opts.max_iters = 500;
  plain_opts.rel_tol = 1e-10;
  std::vector<double> x_plain(n, 0.0);
  auto plain_ctx = core::make_seq();
  auto plain = la::cg(plain_ctx, op, prec, b, x_plain, plain_opts);
  ASSERT_TRUE(plain.converged);

  struct NullPart final : resil::Checkpointable {
    void save_state(std::vector<double>& out) const override { out.clear(); }
    void restore_state(const std::vector<double>&) override {}
  };

  phoenix::SurvivableConfig cfg;
  cfg.workers = 4;
  cfg.steps = 1;
  cfg.ckpt_every = 0;
  cfg.mpi.timeout_seconds = 5.0;

  std::mutex mtx;
  std::map<int, std::vector<double>> xs;
  std::map<int, std::size_t> its;
  phoenix::SurvivableHooks hooks;
  hooks.make = [](phoenix::RankContext&, int) {
    return std::make_unique<NullPart>();
  };
  hooks.step = [&](phoenix::RankContext& rc, int) {
    la::SolveOptions opts = plain_opts;
    opts.reduce =
        phoenix::replicated_reduce(rc, phoenix::RankContext::kChanApp);
    la::CsrOperator lop(a);
    la::JacobiPreconditioner lprec(a);
    std::vector<double> x(n, 0.0);
    auto res = la::cg(rc.ctx(), lop, lprec, b, x, opts);
    std::lock_guard<std::mutex> lk(mtx);
    xs[rc.rank()] = std::move(x);
    its[rc.rank()] = res.iterations;
  };
  phoenix::run_survivable(cfg, hooks);

  ASSERT_EQ(xs.size(), 4u);
  for (auto& [r, x] : xs) {
    EXPECT_EQ(x, x_plain) << "rank " << r;
    EXPECT_EQ(its.at(r), plain.iterations);
  }
}

// ---------------------------------------------------------------------------
// Observability: metrics, the xray merge, and drain logging
// ---------------------------------------------------------------------------

TEST(PhoenixObs, MetricsXrayAndDrainLoggingOnRecovery) {
  auto cluster = hsim::clusters::ethernet(4);
  net::NetLog log;
  obs::MetricsRegistry metrics;

  auto cfg = wave_cfg(4, 1, phoenix::RepairPolicy::Spare);
  cfg.nx = 16;
  cfg.steps = 6;
  cfg.ckpt_every = 3;
  cfg.cluster = &cluster;
  cfg.log = &log;
  cfg.metrics = &metrics;
  cfg.trace_ranks = true;
  // Second commit vote (see SpareSubstitutionRecoversBitwise): makes the
  // replayed_steps metric assertion below deterministic.
  cfg.fault_hook = phoenix::kill_rank_at(1, 30);
  auto r = stencil::survivable_wave_run(cfg, wave_u0);
  ASSERT_EQ(r.report.stats.kills, 1u);

  // phoenix.* metrics published (the schema validate_bench_json pins).
  EXPECT_EQ(metrics.counter("phoenix.kills"), 1.0);
  EXPECT_GE(metrics.counter("phoenix.detections"), 1.0);
  EXPECT_GE(metrics.counter("phoenix.repairs"), 1.0);
  EXPECT_EQ(metrics.counter("phoenix.adoptions"), 1.0);
  EXPECT_GT(metrics.counter("phoenix.ckpt_commits"), 0.0);
  EXPECT_GT(metrics.counter("phoenix.restores"), 0.0);
  EXPECT_GT(metrics.counter("phoenix.replayed_steps"), 0.0);
  EXPECT_GT(metrics.counter("phoenix.buddy_msgs"), 0.0);
  EXPECT_GT(metrics.counter("phoenix.buddy_bytes"), 0.0);
  EXPECT_GE(metrics.counter("phoenix.shipped_msgs"), 1.0);
  EXPECT_GT(metrics.counter("phoenix.repair_s"), 0.0);

  const auto events = log.snapshot();
  // Recovery traffic is epoch-salted: post-repair tags live past 0x10000.
  bool salted = false;
  // Every send is matched by a receive — real or the repair leader's
  // synthetic drain — so the replay has no unmatched sends.
  std::map<std::tuple<int, int, int>, long> balance;
  for (const auto& e : events) {
    if (e.tag >= 0x10000) salted = true;
    if (e.kind == net::NetEvent::Kind::Send) {
      balance[{e.rank, e.peer, e.tag}] += 1;
    } else if (e.kind == net::NetEvent::Kind::Recv) {
      balance[{e.peer, e.rank, e.tag}] -= 1;
    }
  }
  EXPECT_TRUE(salted);
  for (const auto& [k, v] : balance) {
    EXPECT_EQ(v, 0) << "unbalanced (src=" << std::get<0>(k)
                    << ", dest=" << std::get<1>(k)
                    << ", tag=" << std::get<2>(k) << ")";
  }

  // The merged cross-rank view replays clean, and the repair has a trace
  // presence ("phoenix/repair" phase) for critical-path attribution.
  xray::MergeInputs in;
  in.log = &log;
  in.cluster = &cluster;
  in.ranks = 4;
  auto rep = xray::analyze(in);
  EXPECT_TRUE(rep.well_formed) << (rep.diagnostics.empty()
                                       ? std::string("no diagnostics")
                                       : rep.diagnostics.front());
  EXPECT_GT(rep.critical_s, 0.0);

  bool saw_repair = false, saw_ckpt = false;
  for (const auto& tb : r.report.rank_traces) {
    for (const auto& e : tb.snapshot()) {
      if (e.phase == "phoenix/repair") saw_repair = true;
      if (e.phase == "phoenix/ckpt") saw_ckpt = true;
    }
  }
  EXPECT_TRUE(saw_repair);
  EXPECT_TRUE(saw_ckpt);
}

// Satellite (b): the resil store-integrity counters ride the registry.
TEST(PhoenixObs, ResilStoreIntegrityCountersPublished) {
  struct One final : resil::Checkpointable {
    double v = 1.0;
    void save_state(std::vector<double>& out) const override { out = {v}; }
    void restore_state(const std::vector<double>& in) override { v = in[0]; }
  };
  One app;
  auto ctx = core::make_seq();
  obs::MetricsRegistry m;
  resil::ResilienceConfig cfg;
  cfg.metrics = &m;
  resil::run_resilient(
      app, ctx, 3,
      [&](std::size_t) {
        app.v += 1.0;
        ctx.record_kernel({8.0, 8.0});
      },
      cfg);
  const auto cs = m.counters();
  EXPECT_EQ(cs.count("resil.refused_generations"), 1u);
  EXPECT_EQ(cs.count("resil.crc_fallbacks"), 1u);
  EXPECT_EQ(cs.at("resil.refused_generations"), 0.0);
  EXPECT_EQ(cs.at("resil.crc_fallbacks"), 0.0);
}

// ---------------------------------------------------------------------------
// Chaos: CI's chaos job sweeps COE_CHAOS_SEED through this binary
// ---------------------------------------------------------------------------

/// Chaos seed for this process: CI sets COE_CHAOS_SEED per matrix entry; a
/// failure is reproducible by exporting the logged value.
std::uint64_t chaos_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("COE_CHAOS_SEED");
    std::uint64_t v = env != nullptr ? std::strtoull(env, nullptr, 10) : 1ull;
    if (v == 0) v = 1;
    std::cout << "[chaos] COE_CHAOS_SEED=" << v << "\n";
    return v;
  }();
  return seed;
}

// The survivability contract under arbitrary seeded kill schedules: every
// run either rides through to the fault-free bits or aborts loudly with
// PhoenixUnrecoverable (a buddy pair died inside one commit window) —
// never a hang, never silently wrong bits. Any seed must pass.
TEST(PhoenixChaos, SeededKillSchedulesSurviveBitwiseOrFailLoud) {
  const std::uint64_t seed = chaos_seed();
  auto cfg = wave_cfg(4, 2, phoenix::RepairPolicy::Spare);
  cfg.steps = 8;
  cfg.ckpt_every = 3;
  const auto ref = stencil::survivable_wave_run(cfg, wave_u0);

  std::size_t survived = 0, aborted = 0;
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    auto c = cfg;
    c.fault_hook = phoenix::seeded_kills(4, 2, seed * 1000 + trial, 4, 40);
    try {
      const auto r = stencil::survivable_wave_run(c, wave_u0);
      EXPECT_EQ(r.field, ref.field)
          << "seed " << seed << " trial " << trial;
      ++survived;
    } catch (const phoenix::PhoenixUnrecoverable&) {
      ++aborted;
    }
  }
  EXPECT_EQ(survived + aborted, 6u);
  std::cout << "[chaos] " << survived << " survived bitwise, " << aborted
            << " aborted loud\n";
}

}  // namespace
