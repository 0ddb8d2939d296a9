#include "prof/dag.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

namespace coe::prof {

const char* to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::Root: return "root";
    case EdgeKind::ProgramOrder: return "program_order";
    case EdgeKind::EventWait: return "event_wait";
    case EdgeKind::KernelSlot: return "kernel_slot";
    case EdgeKind::DmaEngine: return "dma_engine";
    case EdgeKind::Dependency: return "dependency";
  }
  return "?";
}

const char* to_string(Category c) {
  switch (c) {
    case Category::Compute: return "compute";
    case Category::Memory: return "memory";
    case Category::Launch: return "launch";
    case Category::Transfer: return "transfer";
    case Category::DependencyStall: return "dependency_stall";
  }
  return "?";
}

Category PhaseProfile::bound() const {
  const double parts[5] = {compute_s, memory_s, launch_s, transfer_s,
                           stall_s};
  std::size_t best = 0;
  for (std::size_t i = 1; i < 5; ++i) {
    if (parts[i] > parts[best]) best = i;
  }
  return static_cast<Category>(best);
}

const PhaseProfile* DagProfile::phase(const std::string& name) const {
  for (const auto& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

namespace {

bool is_transfer(obs::TraceEvent::Kind k) {
  return k == obs::TraceEvent::Kind::TransferH2D ||
         k == obs::TraceEvent::Kind::TransferD2H;
}

double end_of(const obs::TraceEvent& e) { return e.t_start + e.duration; }

/// prof's binding rule: the binding predecessor of `events[ci]` is the
/// already-issued event whose completion coincides with its start. When
/// several ends land on the start time (within eps), the most specific
/// constraint wins: program order on the same stream, then a replayed wait
/// edge, then resource contention (kernel slot / DMA engine), then a
/// generic dependency. With no predecessor the chain has reached the
/// window origin (or a trace gap).
Hop<EdgeKind, std::size_t> bind(const std::vector<obs::TraceEvent>& events,
                                const std::vector<char>& wait_bound,
                                std::size_t ci, double eps) {
  // Kernel-slot and DMA-engine contention rank equal.
  auto rank = [](EdgeKind k) {
    return k == EdgeKind::DmaEngine ? EdgeKind::KernelSlot : k;
  };
  const obs::TraceEvent& cur = events[ci];
  Hop<EdgeKind, std::size_t> hop;
  EdgeKind best = EdgeKind::Root;
  double best_err = 0.0;
  for (std::size_t j = ci; j-- > 0;) {
    const obs::TraceEvent& p = events[j];
    // Zero-duration predecessors cannot carry critical-path time and,
    // since their start == their end, chaining through them would not
    // advance the backward walk.
    if (!(p.duration > 0.0)) continue;
    const double err = std::abs(end_of(p) - cur.t_start);
    if (err > eps) continue;
    EdgeKind via = EdgeKind::Dependency;
    if (p.stream == cur.stream) {
      via = EdgeKind::ProgramOrder;
    } else if (wait_bound[ci]) {
      via = EdgeKind::EventWait;
    } else if (cur.kind == obs::TraceEvent::Kind::Kernel &&
               p.kind == obs::TraceEvent::Kind::Kernel) {
      via = EdgeKind::KernelSlot;
    } else if (is_transfer(cur.kind) && p.kind == cur.kind) {
      via = EdgeKind::DmaEngine;
    }
    if (!hop.next || rank(via) < rank(best) ||
        (rank(via) == rank(best) && err < best_err)) {
      hop.next = j;
      best = via;
      best_err = err;
    }
  }
  hop.step = CritStep<EdgeKind>{ci,          cur.stream,  best,
                                cur.t_start, end_of(cur), cur.duration};
  return hop;
}

}  // namespace

DagProfile analyze(const obs::TraceBuffer& buf) {
  DagProfile prof;
  prof.machine = buf.source();
  prof.launch_overhead = buf.launch_overhead();
  prof.dropped = buf.dropped();

  const auto snap = buf.snapshot();
  // Split payload events from the zero-duration ordering markers, but
  // remember which waits bind which events: a wait_event marker raises its
  // stream to the recorded completion time, so the next payload event on
  // that stream starting exactly there entered through a wait edge.
  std::map<int, std::vector<double>> pending_waits;
  std::vector<char> wait_bound;
  for (const auto& e : snap) {
    if (obs::is_marker(e.kind)) {
      if (e.kind == obs::TraceEvent::Kind::EventWait) {
        pending_waits[e.stream].push_back(e.t_start);
      }
      continue;
    }
    prof.events.push_back(e);
    wait_bound.push_back(0);
    auto it = pending_waits.find(e.stream);
    if (it != pending_waits.end()) {
      for (double t : it->second) {
        if (std::abs(t - e.t_start) <=
            1e-12 * std::max(1.0, std::abs(e.t_start))) {
          wait_bound.back() = 1;
        }
      }
      it->second.clear();
    }
  }
  if (prof.events.empty()) return prof;

  prof.origin = prof.events.front().t_start;
  prof.makespan = end_of(prof.events.front());
  std::size_t sink = 0;
  std::map<int, StreamProfile> streams;
  std::map<int, double> last_end;  // per-stream previous completion
  std::map<std::string, std::size_t> phase_index;

  auto phase_of = [&](const obs::TraceEvent& e) -> PhaseProfile& {
    const std::string name = e.phase.empty() ? "(none)" : e.phase;
    auto it = phase_index.find(name);
    if (it == phase_index.end()) {
      it = phase_index.emplace(name, prof.phases.size()).first;
      prof.phases.push_back(PhaseProfile{});
      prof.phases.back().name = name;
    }
    return prof.phases[it->second];
  };

  for (std::size_t i = 0; i < prof.events.size(); ++i) {
    const auto& e = prof.events[i];
    prof.origin = std::min(prof.origin, e.t_start);
    if (end_of(e) > prof.makespan) {
      prof.makespan = end_of(e);
      sink = i;
    }
    prof.busy_s += e.duration;
    auto& s = streams[e.stream];
    s.stream = e.stream;
    s.busy_s += e.duration;
    s.events++;
  }
  prof.window_s = prof.makespan - prof.origin;

  // Per-phase busy decomposition + dependency stalls. The launch-overhead
  // share of each kernel comes from the stamped machine metadata.
  for (const auto& e : prof.events) {
    auto& ph = phase_of(e);
    ph.busy_s += e.duration;
    ++(e.kind == obs::TraceEvent::Kind::Kernel ? ph.kernels : ph.transfers);
    const Roofline r = roofline(e, prof.launch_overhead);
    ph.compute_s += r.compute;
    ph.memory_s += r.memory;
    ph.launch_s += r.launch;
    ph.transfer_s += r.transfer;
    auto it = last_end.find(e.stream);
    const double prev = it == last_end.end() ? prof.origin : it->second;
    if (e.t_start > prev) ph.stall_s += e.t_start - prev;
    const double end = end_of(e);
    if (it == last_end.end()) {
      last_end.emplace(e.stream, end);
    } else if (end > it->second) {
      it->second = end;
    }
  }

  for (auto& [id, s] : streams) {
    s.utilization = prof.window_s > 0.0 ? s.busy_s / prof.window_s : 0.0;
    prof.streams.push_back(s);
  }
  prof.overlap_efficiency =
      prof.window_s > 0.0 ? prof.busy_s / prof.window_s : 0.0;

  // Backward walk from the sink. Each predecessor's end coincides with the
  // current start, so the chain is gapless and start times strictly
  // decrease (binding predecessors have duration > 0) — the walk ends
  // within one hop per event.
  const double eps =
      1e-9 * std::max({1.0, std::abs(prof.makespan), prof.window_s});
  prof.walk(sink, prof.events.size(), prof.window_s,
            DagProfile::Tally::EarliestFirst, [&](std::size_t ci) {
              return bind(prof.events, wait_bound, ci, eps);
            });
  for (const auto& step : prof.critical_path) {
    phase_of(prof.events[step.event]).crit_s += step.seconds;
  }
  return prof;
}

}  // namespace coe::prof
