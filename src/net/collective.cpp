#include "net/collective.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/exec.hpp"

namespace coe::net {

namespace {

// Tag block reserved for net collectives. One tag per algorithm phase is
// enough: mailbox queues are FIFO per (src, dst, tag), and within a phase
// each round talks to a distinct partner, so messages can never overtake
// each other even across back-to-back collectives.
constexpr int kTagFold = 0x6A00;
constexpr int kTagUnfold = 0x6A01;
constexpr int kTagRd = 0x6A02;
constexpr int kTagRingRs = 0x6A03;
constexpr int kTagRingAg = 0x6A04;
constexpr int kTagNaive = 0x6A05;

enum class Op { Sum, Max };

void combine(std::span<double> acc, const std::vector<double>& in, Op op) {
  const std::size_t n = std::min(acc.size(), in.size());
  if (op == Op::Sum) {
    for (std::size_t i = 0; i < n; ++i) acc[i] += in[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) acc[i] = std::max(acc[i], in[i]);
  }
}

void count_send(std::size_t count, NetStats* stats) {
  if (stats) {
    stats->messages += 1;
    stats->bytes += 8.0 * static_cast<double>(count);
  }
}

void post(mpi::Communicator& comm, int dest, int tag,
          std::span<const double> v, NetStats* stats,
          const RankLogger& logger) {
  comm.isend(dest, tag, std::vector<double>(v.begin(), v.end()));
  count_send(v.size(), stats);
  logger.send(dest, tag, 8.0 * static_cast<double>(v.size()), false);
}

std::vector<double> fetch(mpi::Communicator& comm, int src, int tag,
                          const RankLogger& logger) {
  auto data = comm.recv(src, tag);
  logger.recv(src, tag, 8.0 * static_cast<double>(data.size()));
  return data;
}

/// Recursive doubling over the largest power-of-two subgroup; extra ranks
/// fold their vector into a partner up front and get the result back at the
/// end (the standard MPICH non-power-of-two reduction).
void allreduce_rd(mpi::Communicator& comm, std::span<double> inout, Op op,
                  NetStats* stats, const RankLogger& logger) {
  const int p = comm.size();
  const int r = comm.rank();
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;

  int newrank;
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      post(comm, r + 1, kTagFold, inout, stats, logger);
      newrank = -1;  // parked until the unfold
    } else {
      combine(inout, fetch(comm, r - 1, kTagFold, logger), op);
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }

  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int newpeer = newrank ^ mask;
      const int peer = newpeer < rem ? newpeer * 2 + 1 : newpeer + rem;
      post(comm, peer, kTagRd, inout, stats, logger);
      // Two-operand FP addition/max is commutative, so both partners end
      // the round with bit-identical partials.
      combine(inout, fetch(comm, peer, kTagRd, logger), op);
    }
  }

  if (r < 2 * rem) {
    if (r % 2 == 1) {
      post(comm, r - 1, kTagUnfold, inout, stats, logger);
    } else {
      auto result = fetch(comm, r + 1, kTagUnfold, logger);
      std::copy(result.begin(), result.end(), inout.begin());
    }
  }
}

/// Ring allreduce: p-1 reduce-scatter steps then p-1 allgather steps, each
/// rank moving one 1/p chunk per step — 2(p-1)/p of the vector total, the
/// bandwidth-optimal volume.
void allreduce_ring(mpi::Communicator& comm, std::span<double> inout, Op op,
                    NetStats* stats, const RankLogger& logger) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t n = inout.size();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  auto chunk_lo = [&](int c) { return n * static_cast<std::size_t>(c) /
                                      static_cast<std::size_t>(p); };
  auto chunk = [&](int c) {
    return inout.subspan(chunk_lo(c), chunk_lo(c + 1) - chunk_lo(c));
  };

  // Reduce-scatter: after step s, the partial for chunk c has visited
  // ranks c+1..c+s+1 (mod p) in ring order — a fixed association identical
  // no matter which rank you ask.
  for (int s = 0; s < p - 1; ++s) {
    post(comm, right, kTagRingRs, chunk((r - s + p) % p), stats, logger);
    combine(chunk((r - s - 1 + 2 * p) % p),
            fetch(comm, left, kTagRingRs, logger), op);
  }
  // Allgather: rank r owns the finished chunk (r+1) mod p; circulate.
  for (int s = 0; s < p - 1; ++s) {
    post(comm, right, kTagRingAg, chunk((r + 1 - s + p) % p), stats, logger);
    auto in = fetch(comm, left, kTagRingAg, logger);
    auto dst = chunk((r - s + p) % p);
    std::copy(in.begin(), in.end(), dst.begin());
  }
}

/// Naive all-to-all broadcast: every rank sends its full vector to every
/// other rank and reduces in rank order. P(P-1) messages of the full size —
/// the O(P^2) baseline the ablation compares against.
void allreduce_naive(mpi::Communicator& comm, std::span<double> inout, Op op,
                     NetStats* stats, const RankLogger& logger) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::vector<double> mine(inout.begin(), inout.end());
  for (int dst = 0; dst < p; ++dst) {
    if (dst != r) post(comm, dst, kTagNaive, mine, stats, logger);
  }
  // Reduce in ascending rank order — the same association on every rank.
  std::fill(inout.begin(), inout.end(),
            op == Op::Sum ? 0.0 : -1.7976931348623157e308);
  for (int src = 0; src < p; ++src) {
    if (src == r) {
      combine(inout, mine, op);
    } else {
      combine(inout, fetch(comm, src, kTagNaive, logger), op);
    }
  }
}

void allreduce(mpi::Communicator& comm, std::span<double> inout, Op op,
               AllreduceAlgo algo, NetStats* stats, const RankLogger& logger) {
  if (stats) stats->reductions += 1;
  if (comm.size() <= 1) return;
  switch (algo) {
    case AllreduceAlgo::Central:
      if (op == Op::Sum) {
        comm.allreduce_sum(inout);
      } else {
        comm.allreduce_max(inout);
      }
      logger.allreduce(8.0 * static_cast<double>(inout.size()));
      return;
    case AllreduceAlgo::Naive:
      allreduce_naive(comm, inout, op, stats, logger);
      return;
    case AllreduceAlgo::RecursiveDoubling:
      allreduce_rd(comm, inout, op, stats, logger);
      return;
    case AllreduceAlgo::Ring:
      allreduce_ring(comm, inout, op, stats, logger);
      return;
  }
}

}  // namespace

const char* algo_name(AllreduceAlgo a) {
  switch (a) {
    case AllreduceAlgo::Central: return "central";
    case AllreduceAlgo::Naive: return "naive";
    case AllreduceAlgo::RecursiveDoubling: return "rd";
    case AllreduceAlgo::Ring: return "ring";
  }
  return "?";
}

std::size_t allreduce_messages(AllreduceAlgo a, int ranks) {
  if (ranks <= 1) return 0;
  const auto p = static_cast<std::size_t>(ranks);
  switch (a) {
    case AllreduceAlgo::Central:
      return 0;
    case AllreduceAlgo::Naive:
      return p * (p - 1);
    case AllreduceAlgo::RecursiveDoubling: {
      std::size_t pof2 = 1;
      int rounds = 0;
      while (pof2 * 2 <= p) {
        pof2 *= 2;
        ++rounds;
      }
      const std::size_t rem = p - pof2;
      return pof2 * static_cast<std::size_t>(rounds) + 2 * rem;
    }
    case AllreduceAlgo::Ring:
      return 2 * p * (p - 1);
  }
  return 0;
}

double modeled_allreduce(AllreduceAlgo a, const hsim::ClusterModel& net,
                         std::size_t bytes, int ranks) {
  if (ranks <= 1) return 0.0;
  const double p = static_cast<double>(ranks);
  const double b = static_cast<double>(bytes);
  const double rounds = std::ceil(std::log2(p));
  switch (a) {
    case AllreduceAlgo::Central:
      return net.allreduce(bytes, ranks);
    case AllreduceAlgo::Naive:
      // Every rank injects p-1 full vectors through one NIC.
      return (p - 1.0) * (net.alpha + net.beta * b);
    case AllreduceAlgo::RecursiveDoubling:
      return rounds * (net.alpha + net.beta * b);
    case AllreduceAlgo::Ring:
      return 2.0 * (p - 1.0) * (net.alpha + net.beta * b / p);
  }
  return 0.0;
}

AllreduceAlgo select_allreduce(const hsim::ClusterModel& net,
                               std::size_t bytes, int ranks) {
  const double rd =
      modeled_allreduce(AllreduceAlgo::RecursiveDoubling, net, bytes, ranks);
  const double ring = modeled_allreduce(AllreduceAlgo::Ring, net, bytes, ranks);
  return rd <= ring ? AllreduceAlgo::RecursiveDoubling : AllreduceAlgo::Ring;
}

void allreduce_sum(mpi::Communicator& comm, std::span<double> inout,
                   AllreduceAlgo algo, NetStats* stats, RankLogger logger) {
  allreduce(comm, inout, Op::Sum, algo, stats, logger);
}

void allreduce_max(mpi::Communicator& comm, std::span<double> inout,
                   AllreduceAlgo algo, NetStats* stats, RankLogger logger) {
  allreduce(comm, inout, Op::Max, algo, stats, logger);
}

std::function<void(std::span<double>)> logged_reduce(
    mpi::Communicator& comm, AllreduceAlgo algo, NetStats* stats,
    RankLogger logger, core::ExecContext* ctx) {
  // The cursor lives on the heap so copies of the std::function share it
  // (la::cg copies its SolveOptions).
  auto cursor =
      std::make_shared<double>(ctx ? ctx->simulated_time() : 0.0);
  return [&comm, algo, stats, logger, ctx, cursor](std::span<double> vals) {
    if (ctx != nullptr) {
      const double s = ctx->simulated_time();
      logger.compute(s - *cursor);
      *cursor = s;
    }
    allreduce_sum(comm, vals, algo, stats, logger);
  };
}

}  // namespace coe::net
