#pragma once
// Operation counting and time prediction. Kernels annotate their work with a
// Workload (per-iteration flops/bytes); a CostModel turns accumulated counts
// into predicted seconds on a MachineModel.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coe::hsim {

/// Per-iteration work annotation for a kernel. Totals are obtained by
/// multiplying by the iteration count at launch time.
struct Workload {
  double flops_per_iter = 0.0;
  double bytes_per_iter = 0.0;
};

/// Total work of one kernel launch.
struct KernelCost {
  double flops = 0.0;
  double bytes = 0.0;

  KernelCost& operator+=(const KernelCost& o) {
    flops += o.flops;
    bytes += o.bytes;
    return *this;
  }
};

inline KernelCost total(const Workload& w, std::size_t iters) {
  const auto n = static_cast<double>(iters);
  return {w.flops_per_iter * n, w.bytes_per_iter * n};
}

/// Running totals of everything an execution context did. These are the
/// quantities our NVProf-substitute reports (cf. Figure 6, which plots
/// global load/store counts next to time).
struct Counters {
  double flops = 0.0;
  double bytes = 0.0;
  std::uint64_t launches = 0;
  double h2d_bytes = 0.0;
  double d2h_bytes = 0.0;
  std::uint64_t transfers = 0;

  void reset() { *this = Counters{}; }

  Counters& operator+=(const Counters& o) {
    flops += o.flops;
    bytes += o.bytes;
    launches += o.launches;
    h2d_bytes += o.h2d_bytes;
    d2h_bytes += o.d2h_bytes;
    transfers += o.transfers;
    return *this;
  }
};

/// Converts counts into predicted seconds on one machine.
class CostModel {
 public:
  explicit CostModel(MachineModel m) : machine_(std::move(m)) {}

  const MachineModel& machine() const { return machine_; }

  /// Roofline kernel time: launch overhead + max(compute, memory) time.
  double kernel_time(const KernelCost& c) const {
    const double t_flop = c.flops / machine_.flops();
    const double t_mem = c.bytes / machine_.bandwidth();
    return machine_.launch_overhead + (t_flop > t_mem ? t_flop : t_mem);
  }

  /// Host<->device transfer over the machine's link.
  double transfer_time(double bytes) const {
    return machine_.link_latency + bytes / machine_.link_bw;
  }

  /// Predicted time for a full counter set (kernels + transfers).
  ///
  /// CAUTION — this is a *lower bound*, not the authoritative accounting.
  /// It applies the roofline max over the run's AGGREGATE flop/byte
  /// totals, while the simulated clock (StreamClock, shadow
  /// pricing, reprice()) takes the max per launch:
  ///     max(sum f_i, sum b_i) <= sum max(f_i, b_i).
  /// The two agree exactly when every launch sits on the same side of the
  /// machine's ridge point; any run mixing compute- and memory-bound
  /// kernels makes this strictly optimistic. Per-launch pricing is
  /// authoritative — prefer a shadow machine or reprice() over a trace
  /// when per-launch information is available, and treat this as a quick
  /// aggregate estimate (e.g. for counter sets whose launch structure was
  /// never recorded).
  double predict(const Counters& c) const {
    const double t_flop = c.flops / machine_.flops();
    const double t_mem = c.bytes / machine_.bandwidth();
    const double t_kernels = (t_flop > t_mem ? t_flop : t_mem) +
                             static_cast<double>(c.launches) *
                                 machine_.launch_overhead;
    const double t_xfer =
        static_cast<double>(c.transfers) * machine_.link_latency +
        (c.h2d_bytes + c.d2h_bytes) / machine_.link_bw;
    return t_kernels + t_xfer;
  }

 private:
  MachineModel machine_;
};

/// The simulated stream schedule (DESIGN.md section 11), the one copy both
/// the live ExecContext clock and reprice_streamed drive: per-stream
/// in-order execution, kernels limited to `concurrent_kernels` execution
/// slots, one DMA engine per transfer direction (both overlap kernels), and
/// a sync floor so streams created after a join cannot start before it.
/// Streams are created at the floor on first use.
class StreamClock {
 public:
  explicit StreamClock(int concurrent_kernels)
      : slots_(static_cast<std::size_t>(std::max(1, concurrent_kernels)),
               0.0) {}

  /// Seconds at which the last-finishing operation ends.
  double makespan() const { return makespan_; }

  /// Places a kernel of duration `t` on stream `s`: it starts when the
  /// stream is ready AND a kernel slot frees up. Returns the start time.
  double kernel(std::size_t s, double t) {
    double& ready = ready_at(s);
    auto slot = std::min_element(slots_.begin(), slots_.end());
    const double start = std::max(ready, *slot);
    *slot = ready = finish(start + t);
    return start;
  }

  /// Places a transfer of duration `t` on stream `s` and its direction's
  /// copy engine. Returns the start time.
  double transfer(std::size_t s, double t, bool to_device) {
    double& ready = ready_at(s);
    double& engine = dma_[to_device ? 0 : 1];
    const double start = std::max(ready, engine);
    engine = ready = finish(start + t);
    return start;
  }

  /// Completion time of everything issued on stream `s` so far.
  double record(std::size_t s) { return ready_at(s); }

  /// Work issued on stream `s` from now on starts no earlier than `t`.
  /// Returns the stream's ready time.
  double wait(std::size_t s, double t) {
    double& ready = ready_at(s);
    if (t > ready) ready = t;
    return ready;
  }

  /// Joins every stream at the makespan and returns it.
  double sync() {
    floor_ = makespan_;
    for (auto& r : ready_) r = makespan_;
    return makespan_;
  }

  void reset() { *this = StreamClock(static_cast<int>(slots_.size())); }

 private:
  double& ready_at(std::size_t s) {
    if (s >= ready_.size()) ready_.resize(s + 1, floor_);
    return ready_[s];
  }

  double finish(double end) {
    if (end > makespan_) makespan_ = end;
    return end;
  }

  std::vector<double> ready_ = {0.0};
  std::vector<double> slots_;
  double dma_[2] = {0.0, 0.0};
  double floor_ = 0.0;
  double makespan_ = 0.0;
};

/// Re-prices a recorded kernel/transfer trace on `m`, per event — the
/// authoritative per-launch form that CostModel::predict can only lower
/// bound. Restricting to one timeline phase (empty = all) gives the
/// cross-machine per-phase breakdowns of Figures 2/8 without shadowing.
/// The phase filter is hierarchical: "solve" also matches events tagged
/// "solve/cg/spmv" by nested prof::Scope spans.
double reprice(const obs::TraceBuffer& trace, const CostModel& m,
               std::string_view phase = {});

/// Re-prices a trace on `m` honoring stream overlap: events replay in
/// issue order through a StreamClock sized to `m`, with durations
/// recomputed on the target machine. Returns the makespan.
/// The host-side ordering edges (record_event/wait_event/sync) are carried
/// in the trace as zero-duration markers and replayed at the repriced
/// times, so on the machine the trace was recorded on this agrees exactly
/// with ExecContext::simulated_time().
double reprice_streamed(const obs::TraceBuffer& trace, const CostModel& m);

/// Publishes a counter set into a metrics registry under dotted names
/// ("<prefix>.flops", ".bytes", ".launches", ".transfers", ".h2d_bytes",
/// ".d2h_bytes"). Deltas accumulate, so several contexts may publish under
/// one prefix.
void publish(obs::MetricsRegistry& m, const std::string& prefix,
             const Counters& c);

/// Named phase accumulator with both simulated and (optionally) measured
/// time, used to print the per-phase breakdowns of Figures 2 and 8.
class Timeline {
 public:
  struct Phase {
    std::string name;
    double seconds = 0.0;
    Counters counters;
  };

  /// Adds `seconds` (and counts) to the named phase, creating it on first use.
  void add(const std::string& name, double seconds,
           const Counters& c = Counters{});

  const std::vector<Phase>& phases() const { return phases_; }
  double total() const;
  /// Formats a fixed-width breakdown table.
  std::string report(const std::string& title) const;
  void clear() { phases_.clear(); }

 private:
  std::vector<Phase> phases_;
};

}  // namespace coe::hsim
