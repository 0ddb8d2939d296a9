#include "core/cost.hpp"

#include <iomanip>
#include <map>
#include <sstream>

namespace coe::hsim {

void Timeline::add(const std::string& name, double seconds,
                   const Counters& c) {
  for (auto& p : phases_) {
    if (p.name == name) {
      p.seconds += seconds;
      p.counters += c;
      return;
    }
  }
  phases_.push_back(Phase{name, seconds, c});
}

double Timeline::total() const {
  double t = 0.0;
  for (const auto& p : phases_) t += p.seconds;
  return t;
}

std::string Timeline::report(const std::string& title) const {
  std::ostringstream os;
  os << title << "\n";
  os << std::left << std::setw(28) << "  phase" << std::right << std::setw(14)
     << "time (s)" << std::setw(10) << "share" << std::setw(14) << "GFLOP"
     << std::setw(14) << "GB moved" << std::setw(8) << "xfers" << std::setw(14)
     << "GB xfer" << "\n";
  const double tot = total();
  for (const auto& p : phases_) {
    os << std::left << std::setw(28) << ("  " + p.name) << std::right
       << std::setw(14) << std::scientific << std::setprecision(3) << p.seconds
       << std::setw(9) << std::fixed << std::setprecision(1)
       << (tot > 0 ? 100.0 * p.seconds / tot : 0.0) << "%" << std::setw(14)
       << std::setprecision(3) << p.counters.flops / 1e9 << std::setw(14)
       << p.counters.bytes / 1e9 << std::setw(8) << p.counters.transfers
       << std::setw(14)
       << (p.counters.h2d_bytes + p.counters.d2h_bytes) / 1e9 << "\n";
  }
  os << std::left << std::setw(28) << "  total" << std::right << std::setw(14)
     << std::scientific << std::setprecision(3) << tot << "\n";
  return os.str();
}

namespace {

/// Phase filter used by reprice: exact match, or a hierarchical child
/// ("solve" matches "solve/cg/spmv" but not "solve2"). Spans (prof::Scope)
/// tag events with "/"-joined paths; callers aggregating by a coarse phase
/// name keep working unchanged.
bool phase_matches(std::string_view event_phase, std::string_view phase) {
  if (event_phase == phase) return true;
  return event_phase.size() > phase.size() &&
         event_phase.compare(0, phase.size(), phase) == 0 &&
         event_phase[phase.size()] == '/';
}

}  // namespace

double reprice(const obs::TraceBuffer& trace, const CostModel& m,
               std::string_view phase) {
  double t = 0.0;
  for (const auto& e : trace.snapshot()) {
    if (obs::is_marker(e.kind)) continue;
    if (!phase.empty() && !phase_matches(e.phase, phase)) continue;
    if (e.kind == obs::TraceEvent::Kind::Kernel) {
      t += m.kernel_time({e.flops, e.bytes});
    } else {
      t += m.transfer_time(e.bytes);
    }
  }
  return t;
}

double reprice_streamed(const obs::TraceBuffer& trace, const CostModel& m) {
  using Kind = obs::TraceEvent::Kind;
  StreamClock clock(m.machine().concurrent_kernels);
  // Stream-event completion times, rebuilt on the replay clock from the
  // record markers so wait edges bind at the repriced times, not the
  // recorded ones.
  std::map<std::int64_t, double> recorded;
  for (const auto& e : trace.snapshot()) {
    const auto s = static_cast<std::size_t>(e.stream < 0 ? 0 : e.stream);
    switch (e.kind) {
      case Kind::EventRecord:
        recorded[e.dep] = clock.record(s);
        break;
      case Kind::EventWait: {
        const auto it = recorded.find(e.dep);
        if (it != recorded.end()) clock.wait(s, it->second);
        break;
      }
      case Kind::Sync:
        clock.sync();
        break;
      case Kind::Kernel:
        clock.kernel(s, m.kernel_time({e.flops, e.bytes}));
        break;
      default:
        clock.transfer(s, m.transfer_time(e.bytes),
                       e.kind == Kind::TransferH2D);
        break;
    }
  }
  return clock.makespan();
}

void publish(obs::MetricsRegistry& m, const std::string& prefix,
             const Counters& c) {
  m.add(prefix + ".flops", c.flops);
  m.add(prefix + ".bytes", c.bytes);
  m.add(prefix + ".launches", static_cast<double>(c.launches));
  m.add(prefix + ".transfers", static_cast<double>(c.transfers));
  m.add(prefix + ".h2d_bytes", c.h2d_bytes);
  m.add(prefix + ".d2h_bytes", c.d2h_bytes);
}

}  // namespace coe::hsim
