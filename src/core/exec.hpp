#pragma once
// The portability layer the iCoE workload shares: a RAJA-style `forall`
// over pluggable backends. The Seq and Threads backends execute on the real
// host; the Device backend *also* executes on the host (all numerics are
// real) but charges time to an attached GPU machine model — the simulated
// heterogeneous node this reproduction targets (DESIGN.md section 2).
//
// The simulated clock is an event-based per-stream timeline (DESIGN.md
// section 11): launches and transfers issue onto the current stream
// (`stream(id)`), kernels overlap transfers always (separate DMA engines),
// and kernels overlap kernels from other streams up to the machine's
// `concurrent_kernels` limit. With a single stream the accounting is
// bit-for-bit the serialized clock earlier versions kept.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cost.hpp"
#include "core/machine.hpp"
#include "core/residency.hpp"
#include "core/threadpool.hpp"
#include "obs/trace.hpp"

namespace coe::core {

enum class Backend {
  Seq,      ///< serial host execution
  Threads,  ///< host thread-pool execution (the OpenMP analog)
  Device,   ///< host execution, GPU-model time accounting (the CUDA analog)
};

inline const char* to_string(Backend b) {
  switch (b) {
    case Backend::Seq: return "seq";
    case Backend::Threads: return "threads";
    case Backend::Device: return "device";
  }
  return "?";
}

template <std::size_t Dim, typename... Bodies>
class FusedRegion;

/// Execution resource: a backend plus the machine model it charges time to.
/// Every kernel launch, reduction, and buffer transfer updates this
/// context's counters, simulated clock, and current timeline phase.
class ExecContext {
 public:
  /// Host-only context charging time to `host_model`.
  explicit ExecContext(Backend backend = Backend::Seq,
                       hsim::MachineModel model = hsim::machines::host())
      : backend_(backend),
        model_(std::move(model)),
        clock_(model_.machine().concurrent_kernels) {}

  Backend backend() const { return backend_; }
  const hsim::CostModel& model() const { return model_; }
  bool on_device() const { return backend_ == Backend::Device; }

  hsim::Counters& counters() { return counters_; }
  const hsim::Counters& counters() const { return counters_; }

  /// Simulated seconds at which the last-finishing operation ends (the
  /// makespan). With one stream this is the serialized sum of all
  /// operation times; with overlap it can be smaller than that sum.
  double simulated_time() const { return clock_.makespan(); }
  void reset() {
    counters_.reset();
    clock_.reset();
    timeline_.clear();
    // Shadow accumulators are part of the run being reset too — leaving
    // them would make shadow_time() report stale totals forever after.
    for (auto& s : shadows_) s.second = 0.0;
    if (trace_) trace_->clear();
    cur_stream_ = 0;
    next_event_id_ = 0;
  }

  hsim::Timeline& timeline() { return timeline_; }
  /// Subsequent launches/transfers accrue to this named timeline phase.
  void set_phase(std::string name) { phase_ = std::move(name); }
  const std::string& phase() const { return phase_; }

  // --- streams -----------------------------------------------------------

  /// Opaque marker of "everything issued on a stream so far" — the
  /// cudaEvent analog for cross-stream ordering.
  struct StreamEvent {
    double t = 0.0;        ///< simulated completion time of the recorded work
    std::int64_t id = -1;  ///< trace marker id linking record to waits
  };

  /// Subsequent launches/transfers issue onto simulated stream `id`
  /// (created on first use). Work on different streams may overlap per
  /// the machine model; work within one stream always serializes.
  void stream(std::size_t id) { cur_stream_ = id; }
  std::size_t current_stream() const { return cur_stream_; }

  /// Records an event on the current stream: it completes when all work
  /// issued on this stream so far has completed.
  StreamEvent record_event() {
    StreamEvent ev{clock_.record(cur_stream_), next_event_id_++};
    if (trace_) push_marker(obs::TraceEvent::Kind::EventRecord, ev.t, ev.id);
    return ev;
  }

  /// Makes subsequent work on the current stream start no earlier than
  /// `ev` completes (cudaStreamWaitEvent).
  void wait_event(StreamEvent ev) {
    const double r = clock_.wait(cur_stream_, ev.t);
    if (trace_) push_marker(obs::TraceEvent::Kind::EventWait, r, ev.id);
  }

  /// Joins every stream (cudaDeviceSynchronize): subsequent work on any
  /// stream starts at or after the returned makespan.
  double sync() {
    const double t = clock_.sync();
    if (trace_) push_marker(obs::TraceEvent::Kind::Sync, t, -1);
    return t;
  }

  /// Opt-in per-kernel tracing: attaches a (non-owned) ring buffer that
  /// receives one event per launch/transfer — phase, label, exact
  /// flop/byte counts, predicted duration, backend, stream id, and the
  /// roofline memory-/compute-bound classification against this machine's
  /// ridge. nullptr detaches; with no buffer attached the only cost per
  /// launch is one branch. The buffer is stamped with this machine's name
  /// and launch overhead so offline consumers can attribute durations.
  void set_trace(obs::TraceBuffer* buf) {
    trace_ = buf;
    if (trace_) {
      trace_->set_source(model_.machine().name,
                         model_.machine().launch_overhead);
    }
  }
  obs::TraceBuffer* trace() const { return trace_; }

  /// Subsequent launches are traced under this label; an empty label
  /// (the default) falls back to the operation kind ("forall",
  /// "reduce_sum", "transfer", ...). Like set_phase, it sticks until
  /// changed.
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  /// RAJA-style parallel loop over [0, n). `w` annotates per-iteration work
  /// so the machine model can price the launch.
  template <typename Body>
  void forall(std::size_t n, hsim::Workload w, Body&& body) {
    launch_begin();
    dispatch(n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
    launch_end(hsim::total(w, n), "forall");
  }

  /// Convenience overload with no work annotation (zero-cost bookkeeping
  /// launch; still counts the launch overhead).
  template <typename Body>
  void forall(std::size_t n, Body&& body) {
    forall(n, hsim::Workload{}, std::forward<Body>(body));
  }

  /// Nested 2D loop, collapsed for the pool backend. Index math is hoisted:
  /// one div/mod per chunk, then increment-carry per iteration.
  template <typename Body>
  void forall2(std::size_t ni, std::size_t nj, hsim::Workload w, Body&& body) {
    const std::size_t n = ni * nj;
    launch_begin();
    dispatch(n, [&, nj](std::size_t lo, std::size_t hi) {
      std::size_t i = lo / nj;
      std::size_t j = lo % nj;
      for (std::size_t idx = lo; idx < hi; ++idx) {
        body(i, j);
        if (++j == nj) {
          j = 0;
          ++i;
        }
      }
    });
    launch_end(hsim::total(w, n), "forall");
  }

  /// Nested 3D loop, collapsed for the pool backend. Same hoisting as
  /// forall2: the per-point `idx / (nj*nk)`, `idx % nk` pair becomes one
  /// div/mod at chunk entry plus carry increments.
  template <typename Body>
  void forall3(std::size_t ni, std::size_t nj, std::size_t nk,
               hsim::Workload w, Body&& body) {
    const std::size_t n = ni * nj * nk;
    launch_begin();
    dispatch(n, [&, nj, nk](std::size_t lo, std::size_t hi) {
      const std::size_t njk = nj * nk;
      std::size_t i = lo / njk;
      const std::size_t rem = lo % njk;
      std::size_t j = rem / nk;
      std::size_t k = rem % nk;
      for (std::size_t idx = lo; idx < hi; ++idx) {
        body(i, j, k);
        if (++k == nk) {
          k = 0;
          if (++j == nj) {
            j = 0;
            ++i;
          }
        }
      }
    });
    launch_end(hsim::total(w, n), "forall");
  }

  /// Sum reduction: body(i) returns each iterate's contribution.
  template <typename Body>
  double reduce_sum(std::size_t n, hsim::Workload w, Body&& body) {
    launch_begin();
    double sum = 0.0;
    if (backend_ == Backend::Threads && n > 1) {
      auto& pool = global_pool();
      // Sized to the exact chunk fan-out; the overflow accumulator keeps
      // the reduction correct even if a chunk lands past the slot array.
      std::vector<double> partial(pool.chunk_count(n), 0.0);
      std::atomic<std::size_t> next{0};
      std::atomic<double> overflow{0.0};
      pool.parallel_for(n, [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) s += body(i);
        const std::size_t slot = next.fetch_add(1);
        if (slot < partial.size()) {
          partial[slot] = s;
        } else {
          double cur = overflow.load();
          while (!overflow.compare_exchange_weak(cur, cur + s)) {
          }
        }
      });
      for (double s : partial) sum += s;
      sum += overflow.load();
    } else {
      for (std::size_t i = 0; i < n; ++i) sum += body(i);
    }
    launch_end(hsim::total(w, n), "reduce_sum");
    return sum;
  }

  /// Max reduction.
  template <typename Body>
  double reduce_max(std::size_t n, hsim::Workload w, Body&& body) {
    constexpr double kLowest = -1.7976931348623157e308;
    launch_begin();
    double m = kLowest;
    if (backend_ == Backend::Threads && n > 1) {
      auto& pool = global_pool();
      std::vector<double> partial(pool.chunk_count(n), kLowest);
      std::atomic<std::size_t> next{0};
      std::atomic<double> overflow{kLowest};
      pool.parallel_for(n, [&](std::size_t lo, std::size_t hi) {
        double lm = kLowest;
        for (std::size_t i = lo; i < hi; ++i) {
          const double v = body(i);
          if (v > lm) lm = v;
        }
        const std::size_t slot = next.fetch_add(1);
        if (slot < partial.size()) {
          partial[slot] = lm;
        } else {
          double cur = overflow.load();
          while (cur < lm && !overflow.compare_exchange_weak(cur, lm)) {
          }
        }
      });
      for (double v : partial) {
        if (v > m) m = v;
      }
      const double of = overflow.load();
      if (of > m) m = of;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const double v = body(i);
        if (v > m) m = v;
      }
    }
    launch_end(hsim::total(w, n), "reduce_max");
    return m;
  }

  // --- fusion ------------------------------------------------------------

  /// Opens a fused region over [0, n): chain `.then(w, body)` stages and
  /// finish with `.launch()` (one kernel, one launch-overhead charge,
  /// summed workloads) or `.reduce_sum(w, term)`. `.elide(bytes)` removes
  /// intermediate-temporary traffic that fusion keeps in registers.
  FusedRegion<1> fused(std::size_t n);
  /// 2D fused region (see fused()).
  FusedRegion<2> fused2(std::size_t ni, std::size_t nj);
  /// 3D fused region (see fused()).
  FusedRegion<3> fused3(std::size_t ni, std::size_t nj, std::size_t nk);

  /// Attaches a shadow machine: every subsequent kernel/transfer is also
  /// priced per-kernel on it, so one real run yields times for several
  /// machines. Returns the shadow's index for shadow_time().
  ///
  /// Shadows keep serialized (single-stream) accounting: they answer
  /// "what would this work cost there", not "how would it overlap".
  std::size_t add_shadow(hsim::MachineModel m) {
    shadows_.emplace_back(hsim::CostModel(std::move(m)), 0.0);
    return shadows_.size() - 1;
  }
  double shadow_time(std::size_t i) const { return shadows_[i].second; }

  /// Records a host<->device transfer of `bytes` (h2d if `to_device`).
  void record_transfer(double bytes, bool to_device) {
    counters_.transfers += 1;
    // The timeline gets the same delta as the global counters, so
    // per-phase breakdowns carry transfer counts and h2d/d2h bytes
    // instead of silently dropping them.
    hsim::Counters delta;
    delta.transfers = 1;
    if (to_device) {
      counters_.h2d_bytes += bytes;
      delta.h2d_bytes = bytes;
    } else {
      counters_.d2h_bytes += bytes;
      delta.d2h_bytes = bytes;
    }
    const double t = model_.transfer_time(bytes);
    const double start = clock_.transfer(cur_stream_, t, to_device);
    timeline_.add(phase_, t, delta);
    if (trace_) {
      obs::TraceEvent e;
      e.kind = to_device ? obs::TraceEvent::Kind::TransferH2D
                         : obs::TraceEvent::Kind::TransferD2H;
      e.bound = obs::TraceEvent::Bound::Memory;
      e.backend = to_string(backend_);
      e.phase = phase_;
      e.label = label_.empty() ? "transfer" : label_;
      e.bytes = bytes;
      e.t_start = start;
      e.duration = t;
      e.stream = static_cast<int>(cur_stream_);
      trace_->push(std::move(e));
    }
    for (auto& s : shadows_) s.second += s.first.transfer_time(bytes);
  }

  /// Charges an explicit cost (for kernels not expressible as forall).
  void record_kernel(const hsim::KernelCost& c) {
    launch_begin();
    launch_end(c, "kernel");
  }

  // --- device-memory residency (DESIGN.md section 14) --------------------

  /// Attaches a residency/capacity manager (coe::mem::DeviceArena). With
  /// none attached (the default) the conveniences below degrade to the
  /// exact raw record_transfer accounting of earlier versions, so enabling
  /// the arena is opt-in per context.
  void set_arena(ResidencyManager* arena) { arena_ = arena; }
  ResidencyManager* arena() const { return arena_; }

  /// Residency-aware h2d copy into a named allocation: the arena may elide
  /// it (device copy already current) or add eviction traffic (capacity
  /// pressure). Falls back to record_transfer(bytes, true) with no arena.
  void upload(std::string_view name, double bytes) {
    if (arena_) {
      arena_->upload(name, bytes);
    } else {
      record_transfer(bytes, /*to_device=*/true);
    }
  }

  /// Residency-aware d2h copy out of a named allocation. Falls back to
  /// record_transfer(bytes, false) with no arena.
  void writeback(std::string_view name, double bytes) {
    if (arena_) {
      arena_->writeback(name, bytes);
    } else {
      record_transfer(bytes, /*to_device=*/false);
    }
  }

  /// Declares a device-kernel operand: with an arena attached the named
  /// allocation is admitted to the resident set (faults and evictions
  /// priced); a one-branch no-op otherwise.
  void touch_device(std::string_view name, double bytes, MemAccess access) {
    if (arena_) arena_->device_touch(name, bytes, access);
  }

  /// Declares a host-side use of a named allocation (a Write makes the
  /// next upload of it non-elidable); a one-branch no-op without an arena.
  void touch_host(std::string_view name, double bytes, MemAccess access) {
    if (arena_) arena_->host_touch(name, bytes, access);
  }

 private:
  template <std::size_t Dim, typename... Bodies>
  friend class FusedRegion;

  void launch_begin() {}

  /// Runs chunk(lo, hi) over [0, n): thread pool on the Threads backend
  /// (templated fast path, no std::function allocation), one chunk inline
  /// otherwise.
  template <typename Chunk>
  void dispatch(std::size_t n, Chunk&& chunk) {
    if (n == 0) return;
    if (backend_ == Backend::Threads) {
      global_pool().parallel_for(n, chunk);
    } else {
      chunk(0, n);
    }
  }

  /// Appends a zero-duration ordering marker (record/wait/sync) so offline
  /// consumers can rebuild the host-side dependency edges. Costs nothing on
  /// the simulated clock; only called with a trace attached.
  void push_marker(obs::TraceEvent::Kind kind, double t, std::int64_t dep) {
    obs::TraceEvent e;
    e.kind = kind;
    e.backend = to_string(backend_);
    e.phase = phase_;
    e.label = to_string(kind);
    e.t_start = t;
    e.stream = static_cast<int>(cur_stream_);
    e.dep = dep;
    trace_->push(std::move(e));
  }

  void launch_end(const hsim::KernelCost& c, const char* kind) {
    counters_.launches += 1;
    counters_.flops += c.flops;
    counters_.bytes += c.bytes;
    const double t = model_.kernel_time(c);
    const double start = clock_.kernel(cur_stream_, t);
    hsim::Counters delta;
    delta.launches = 1;
    delta.flops = c.flops;
    delta.bytes = c.bytes;
    timeline_.add(phase_, t, delta);
    if (trace_) {
      obs::TraceEvent e;
      e.kind = obs::TraceEvent::Kind::Kernel;
      e.bound = compute_bound(c) ? obs::TraceEvent::Bound::Compute
                                 : obs::TraceEvent::Bound::Memory;
      e.backend = to_string(backend_);
      e.phase = phase_;
      e.label = label_.empty() ? kind : label_;
      e.flops = c.flops;
      e.bytes = c.bytes;
      e.t_start = start;
      e.duration = t;
      e.stream = static_cast<int>(cur_stream_);
      trace_->push(std::move(e));
    }
    for (auto& s : shadows_) s.second += s.first.kernel_time(c);
  }

  /// Roofline classification against the active machine's ridge point.
  /// Byte-free launches are compute-bound if they do any flops; pure
  /// launch-overhead events classify as memory-bound.
  bool compute_bound(const hsim::KernelCost& c) const {
    if (c.bytes <= 0.0) return c.flops > 0.0;
    return c.flops / c.bytes >= model_.machine().ridge();
  }

  Backend backend_;
  ResidencyManager* arena_ = nullptr;
  std::vector<std::pair<hsim::CostModel, double>> shadows_;
  hsim::CostModel model_;
  hsim::Counters counters_;
  hsim::Timeline timeline_;
  obs::TraceBuffer* trace_ = nullptr;
  hsim::StreamClock clock_;
  std::size_t cur_stream_ = 0;
  std::int64_t next_event_id_ = 0;
  std::string phase_ = "main";
  std::string label_;
};

/// Builder for a fused kernel: consecutive same-range loop bodies merged
/// into ONE launch. The paper's fusion wins (Cardioid reaction kernels,
/// SW4 RHS, ParaDyn SLNSP) come from exactly this transformation: one
/// launch-overhead charge instead of one per stage, and intermediate
/// temporaries that stay in registers (`elide`) instead of round-tripping
/// through memory. Stages run in order at each index, so fusing is
/// value-identical whenever stage k reads only what stage k-1 wrote at the
/// same index.
template <std::size_t Dim, typename... Bodies>
class FusedRegion {
 public:
  FusedRegion(ExecContext& ctx, std::array<std::size_t, Dim> shape,
              hsim::Workload w, std::tuple<Bodies...> bodies)
      : ctx_(&ctx), shape_(shape), w_(w), bodies_(std::move(bodies)) {}

  /// Appends a stage: per-iteration workload adds to the region's; the
  /// body runs after all previous stages at each index.
  template <typename Body>
  [[nodiscard]] FusedRegion<Dim, Bodies..., Body> then(hsim::Workload w,
                                                       Body body) && {
    const hsim::Workload sum{w_.flops_per_iter + w.flops_per_iter,
                             w_.bytes_per_iter + w.bytes_per_iter};
    return FusedRegion<Dim, Bodies..., Body>(
        *ctx_, shape_, sum,
        std::tuple_cat(std::move(bodies_), std::make_tuple(std::move(body))));
  }

  /// Drops `bytes_per_iter` from the priced traffic: the store+reload of
  /// an intermediate temporary that fusion keeps in registers.
  [[nodiscard]] FusedRegion elide(double bytes_per_iter) && {
    w_.bytes_per_iter -= bytes_per_iter;
    if (w_.bytes_per_iter < 0.0) w_.bytes_per_iter = 0.0;
    return std::move(*this);
  }

  /// Launches all stages as one kernel.
  void launch() && {
    auto run = [this](auto... idx) {
      std::apply([&](auto&... bs) { (bs(idx...), ...); }, bodies_);
    };
    if constexpr (Dim == 1) {
      ctx_->forall(shape_[0], w_, run);
    } else if constexpr (Dim == 2) {
      ctx_->forall2(shape_[0], shape_[1], w_, run);
    } else {
      static_assert(Dim == 3, "FusedRegion supports 1-3 dimensions");
      ctx_->forall3(shape_[0], shape_[1], shape_[2], w_, run);
    }
  }

  /// 1D only: fuses a trailing sum reduction into the same launch — the
  /// stages run first at each index, then term(i) contributes to the sum.
  template <typename Term>
  double reduce_sum(hsim::Workload w, Term term) && {
    static_assert(Dim == 1, "fused reductions are 1D");
    const hsim::Workload tot{w_.flops_per_iter + w.flops_per_iter,
                             w_.bytes_per_iter + w.bytes_per_iter};
    return ctx_->reduce_sum(shape_[0], tot, [&](std::size_t i) {
      std::apply([&](auto&... bs) { (bs(i), ...); }, bodies_);
      return term(i);
    });
  }

 private:
  ExecContext* ctx_;
  std::array<std::size_t, Dim> shape_;
  hsim::Workload w_;
  std::tuple<Bodies...> bodies_;
};

inline FusedRegion<1> ExecContext::fused(std::size_t n) {
  return FusedRegion<1>(*this, {n}, hsim::Workload{}, std::tuple<>{});
}
inline FusedRegion<2> ExecContext::fused2(std::size_t ni, std::size_t nj) {
  return FusedRegion<2>(*this, {ni, nj}, hsim::Workload{}, std::tuple<>{});
}
inline FusedRegion<3> ExecContext::fused3(std::size_t ni, std::size_t nj,
                                          std::size_t nk) {
  return FusedRegion<3>(*this, {ni, nj, nk}, hsim::Workload{}, std::tuple<>{});
}

/// Factory helpers for the machines the paper reports on.
inline ExecContext make_seq() { return ExecContext(Backend::Seq); }
inline ExecContext make_threads() { return ExecContext(Backend::Threads); }
inline ExecContext make_device(hsim::MachineModel m = hsim::machines::v100()) {
  return ExecContext(Backend::Device, std::move(m));
}
inline ExecContext make_cpu(hsim::MachineModel m = hsim::machines::power9()) {
  return ExecContext(Backend::Seq, std::move(m));
}

}  // namespace coe::core
