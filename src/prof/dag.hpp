#pragma once
// coe::prof — critical-path attribution over the stream timeline
// (DESIGN.md section 12). The event-based simulated clock (section 11)
// produces a makespan but does not say *why* it is what it is; this module
// reconstructs the dependency DAG from a stream-tagged trace — program
// order per stream, record/wait event edges, kernel-slot and DMA-engine
// contention edges — and extracts the simulated critical path, per-stream
// utilization, overlap efficiency, and a per-phase bottleneck
// classification (compute / memory / launch / transfer / dependency-stall).
//
// Everything works offline from a TraceBuffer: either the live ring of a
// run or one parsed back from an on-disk TRACE_*.json, which is what the
// coe_report tool consumes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "prof/path.hpp"

namespace coe::prof {

/// Which scheduling constraint bound a critical event's start time.
enum class EdgeKind : std::uint8_t {
  Root,          ///< starts at the trace window origin (nothing before it)
  ProgramOrder,  ///< previous event on the same stream
  EventWait,     ///< a wait_event edge from another stream
  KernelSlot,    ///< all concurrent_kernels execution slots were busy
  DmaEngine,     ///< the direction's DMA copy engine was busy
  Dependency,    ///< some other event's completion (e.g. a sync floor)
};

const char* to_string(EdgeKind k);

/// Resource a phase (or the whole run) is bound by.
enum class Category : std::uint8_t {
  Compute,          ///< roofline flop time of compute-bound kernels
  Memory,           ///< roofline byte time of memory-bound kernels
  Launch,           ///< per-kernel launch overhead
  Transfer,         ///< host<->device copies (latency + payload)
  DependencyStall,  ///< stream idle while blocked on waits/slots/engines
};

const char* to_string(Category c);

/// Per-phase attribution. The busy decomposition (compute/memory/launch/
/// transfer) partitions the phase's busy seconds exactly; adding the
/// dependency-stall seconds gives the phase total the percentage
/// breakdown is reported over, so the five shares sum to 100%.
struct PhaseProfile {
  std::string name;
  double busy_s = 0.0;      ///< sum of event durations (serialized time)
  double crit_s = 0.0;      ///< seconds this phase occupies the critical path
  double stall_s = 0.0;     ///< stream idle before this phase's events
  double compute_s = 0.0;
  double memory_s = 0.0;
  double launch_s = 0.0;
  double transfer_s = 0.0;
  std::uint64_t kernels = 0;
  std::uint64_t transfers = 0;

  double total_s() const { return busy_s + stall_s; }
  /// Dominant category — the phase's stated bound.
  Category bound() const;
};

/// Per-stream occupancy over the trace window.
struct StreamProfile {
  int stream = 0;
  double busy_s = 0.0;
  std::uint64_t events = 0;
  double utilization = 0.0;  ///< busy_s / window_s
};

/// The full attribution of one traced run. The inherited critical path
/// indexes `events`; its lanes are streams and its window is window_s.
struct DagProfile : CriticalPath<EdgeKind> {
  std::string machine;        ///< from the buffer's source metadata
  double launch_overhead = 0.0;
  std::uint64_t dropped = 0;  ///< ring drops — attribution is partial if > 0

  double origin = 0.0;      ///< earliest event start (trace window start)
  double makespan = 0.0;    ///< latest event end
  double window_s = 0.0;    ///< makespan - origin
  double busy_s = 0.0;      ///< serialized sum of all durations
  /// busy_s / window_s: 1.0 = fully serialized, >1 = overlap won time.
  double overlap_efficiency = 0.0;

  std::vector<obs::TraceEvent> events;  ///< markers excluded, issue order
  std::vector<StreamProfile> streams;
  std::vector<PhaseProfile> phases;     ///< first-use order

  const PhaseProfile* phase(const std::string& name) const;
};

/// Reconstructs the DAG and extracts the critical path and attributions.
/// The kernel launch-overhead split uses the buffer's stamped metadata
/// (ExecContext::set_trace records it; parse_chrome_trace restores it).
DagProfile analyze(const obs::TraceBuffer& buf);

}  // namespace coe::prof
