#pragma once
// Log-P collectives built from real point-to-point messages on the mailbox
// substrate (DESIGN.md section 15.2). The legacy Communicator collectives go
// through one shared reduction buffer — semantically an allreduce but with
// no message structure a network model can price. These algorithms exchange
// genuine tagged messages, so mpi::TrafficStats and net::reprice see the
// real O(P log P) (recursive doubling) or bandwidth-optimal (ring) pattern,
// and the O(P^2) naive all-to-all baseline is available for ablation.
//
// Determinism: recursive doubling forms the same binary combination tree on
// every rank, and two-operand IEEE addition is commutative, so each
// exchange leaves both partners with bit-identical partials; the ring
// reduces every chunk in fixed ring order. Each algorithm is therefore
// bitwise deterministic and rank-independent (algorithms may differ from
// each other by FP association, like real MPI implementations).

#include <cstddef>
#include <functional>
#include <span>

#include "core/machine.hpp"
#include "mpi/comm.hpp"
#include "net/log.hpp"

namespace coe::core {
class ExecContext;
}

namespace coe::net {

enum class AllreduceAlgo {
  Central,            ///< legacy shared-buffer collective (no messages)
  Naive,              ///< all-to-all broadcast: P*(P-1) messages, O(P^2)
  RecursiveDoubling,  ///< log2(P) rounds of pairwise exchange, O(P log P)
  Ring,               ///< reduce-scatter + allgather, bandwidth-optimal
};

const char* algo_name(AllreduceAlgo a);

/// Total messages the algorithm injects across all ranks for one allreduce
/// (the quantity bench/ablation_comm sweeps to show O(P log P) vs O(P^2)).
std::size_t allreduce_messages(AllreduceAlgo a, int ranks);

/// Alpha-beta critical-path time of one allreduce of `bytes` per rank.
double modeled_allreduce(AllreduceAlgo a, const hsim::ClusterModel& net,
                         std::size_t bytes, int ranks);

/// Picks recursive doubling or ring by modeled time: small vectors are
/// latency-bound (log2 P rounds win), large vectors are bandwidth-bound
/// (the ring's 2(P-1)/P byte volume wins).
AllreduceAlgo select_allreduce(const hsim::ClusterModel& net,
                               std::size_t bytes, int ranks);

/// Per-rank traffic generated by net collectives on one communicator.
struct NetStats {
  std::size_t messages = 0;  ///< p2p sends posted by this rank
  double bytes = 0.0;        ///< payload bytes sent by this rank
  std::size_t reductions = 0;
};

/// In-place vector sum-allreduce using `algo` (Central delegates to the
/// shared-buffer collective). All ranks must pass the same count and algo.
void allreduce_sum(mpi::Communicator& comm, std::span<double> inout,
                   AllreduceAlgo algo, NetStats* stats = nullptr,
                   RankLogger logger = {});

/// Vector max-allreduce (same structure as allreduce_sum with max combine).
void allreduce_max(mpi::Communicator& comm, std::span<double> inout,
                   AllreduceAlgo algo, NetStats* stats = nullptr,
                   RankLogger logger = {});

/// Builds a la::SolveOptions::reduce hook that records the solver's
/// communication in `logger`'s NetLog: each call first flushes the
/// simulated-time delta `ctx` accrued since the previous call as a Compute
/// event (so the replay sees the SpMV/BLAS1 work between rounds; pass null
/// to skip), then runs allreduce_sum with the real message pattern of
/// `algo`. The returned callable carries the per-rank clock cursor, so
/// build one per rank inside the mpi::run lambda.
std::function<void(std::span<double>)> logged_reduce(
    mpi::Communicator& comm, AllreduceAlgo algo, NetStats* stats,
    RankLogger logger, core::ExecContext* ctx = nullptr);

}  // namespace coe::net
