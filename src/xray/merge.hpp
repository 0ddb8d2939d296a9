#pragma once
// coe::xray — cluster-wide observability (DESIGN.md section 16). Every
// distributed driver already leaves per-rank artifacts behind: a NetLog of
// its communication actions and compute deltas, per-rank NetStats, and
// (optionally) per-rank stream-tagged obs::TraceBuffer kernel traces. This
// module merges them into ONE view of the run:
//
//  * the net::replay schedule places every rank's events on a common
//    clock, with Send/Recv pairs matched exactly by the same FIFO
//    (src, dst, tag) discipline the mailbox substrate enforces;
//  * the prof-style critical path is extended ACROSS ranks: message edges
//    chain a receive's completion to the matched send on the source rank,
//    injection/ejection edges chain through the NIC engines, collective
//    edges jump to the last-arriving rank. The resulting distributed
//    critical path tiles [0, makespan] exactly, so its length equals the
//    net::reprice makespan (fuzz-tested to 1e-9);
//  * per-rank wall time is split five ways — compute / memory /
//    launch-transfer / comm-wait / imbalance — summing to 100%, and
//    across-rank imbalance (max/mean busy ratio, top-k stragglers,
//    per-phase ratios from the rank traces) names who is slow and who is
//    merely waiting.
//
// Everything works offline from the logs; nothing here is on any rank's
// hot path.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/reprice.hpp"
#include "obs/trace.hpp"
#include "prof/path.hpp"

namespace coe::xray {

/// Which cross-rank constraint bound a critical step's start time.
enum class EdgeKind : std::uint8_t {
  Root,        ///< the chain reached time zero
  Program,     ///< previous event in the same rank's program order
  Message,     ///< the matched send on the source rank (comm wait)
  Injection,   ///< the source NIC's injection engine was still busy
  Ejection,    ///< this rank's ejection engine was still draining
  Collective,  ///< the last-arriving rank of a collective
};

const char* to_string(EdgeKind k);

/// The five-way blame taxonomy. Compute/Memory/LaunchTransfer partition a
/// rank's logged compute seconds (refined by its kernel trace's roofline
/// classification when one is provided; all Compute otherwise); CommWait
/// is program-clock time spent in sends, receive waits + drains, and
/// collective costs; Imbalance is idle time — waiting at collective entry
/// for slower ranks, plus the tail between the rank's own finish and the
/// run's makespan.
enum class Blame : std::uint8_t {
  Compute,
  Memory,
  LaunchTransfer,
  CommWait,
  Imbalance,
};

const char* to_string(Blame b);

/// Per-rank five-way decomposition of the run's timeline. The five
/// seconds[] entries sum to the report's timeline_s for every rank, so
/// the percentage split always sums to 100.
struct RankBlame {
  int rank = 0;
  double seconds[5] = {0.0, 0.0, 0.0, 0.0, 0.0};  ///< indexed by Blame
  double busy_s = 0.0;  ///< logged compute seconds (the straggler metric)

  double total_s() const {
    return seconds[0] + seconds[1] + seconds[2] + seconds[3] + seconds[4];
  }
  double pct(Blame b) const {
    const double t = total_s();
    return t > 0.0 ? 100.0 * seconds[static_cast<std::size_t>(b)] / t : 0.0;
  }
  Blame dominant() const;
};

struct Straggler {
  int rank = 0;
  double busy_s = 0.0;
  double share = 0.0;  ///< fraction of the fleet's total busy seconds
};

/// Across-rank time spread of one phase (from the per-rank kernel traces).
struct PhaseImbalance {
  std::string name;
  double mean_s = 0.0;
  double max_s = 0.0;
  int max_rank = 0;
  double ratio = 1.0;  ///< max_s / mean_s, >= 1 whenever any time accrued
  std::vector<double> per_rank_s;
};

/// The merged cluster-wide view of one run. The inherited critical path
/// indexes replay.events, its lanes are ranks, and each step's
/// [start_s, end_s] slice abuts the next so the path tiles [0, makespan_s].
struct Report : prof::CriticalPath<EdgeKind> {
  int ranks = 0;
  /// True only when the replay completed without diagnostics: no blocked
  /// receives, no unmatched sends, no out-of-range ranks, no mismatched
  /// collectives. False reports keep whatever could be computed and carry
  /// the human-readable reasons in `diagnostics`.
  bool well_formed = true;
  std::vector<std::string> diagnostics;

  net::Replay replay;        ///< the merged schedule (owns the events)
  double makespan_s = 0.0;   ///< replay event makespan
  double timeline_s = 0.0;   ///< reprice timeline (bisection-floored)
  std::size_t matched_messages = 0;
  std::size_t unmatched_sends = 0;

  std::vector<RankBlame> blame;  ///< per rank; each totals timeline_s
  RankBlame fleet;               ///< across-rank mean (rank = -1)
  std::vector<Straggler> stragglers;  ///< top-k by busy_s, descending
  double imbalance_ratio = 1.0;  ///< max busy / mean busy across ranks
  int straggler_rank = -1;       ///< argmax busy (-1 when no compute)
  std::vector<PhaseImbalance> phases;  ///< first-use order (needs traces)
};

struct MergeInputs {
  const net::NetLog* log = nullptr;
  const hsim::ClusterModel* cluster = nullptr;
  int ranks = 0;
  /// Optional per-rank kernel traces, indexed by rank (size == ranks).
  /// Refines compute blame into compute/memory/launch-transfer via the
  /// recorded roofline classification and feeds the per-phase imbalance
  /// table; without them all busy time is blamed on Compute and the phase
  /// table is empty.
  const std::vector<obs::TraceBuffer>* rank_traces = nullptr;
};

/// Merges the rank logs into the cluster-wide report. Malformed inputs
/// (unmatched sends, truncated logs that deadlock the replay) produce a
/// well_formed=false report with diagnostics — never a crash.
Report analyze(const MergeInputs& in);

}  // namespace coe::xray
