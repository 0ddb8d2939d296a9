#include "prof/report.hpp"

#include <iomanip>
#include <sstream>

namespace coe::prof {

namespace {

struct Shares {
  double compute = 0.0, memory = 0.0, launch = 0.0, transfer = 0.0,
         stall = 0.0;
};

/// Five-way percentage split of a phase total; sums to 100 when the total
/// is positive (the four busy parts partition busy_s exactly and stall_s
/// is the remainder of total_s).
Shares shares_of(const PhaseProfile& p) {
  const double tot = p.total_s();
  if (!(tot > 0.0)) return {};
  return {100.0 * p.compute_s / tot, 100.0 * p.memory_s / tot,
          100.0 * p.launch_s / tot, 100.0 * p.transfer_s / tot,
          100.0 * p.stall_s / tot};
}

PhaseProfile run_totals(const DagProfile& prof) {
  PhaseProfile all;
  all.name = "total";
  for (const auto& p : prof.phases) {
    all.busy_s += p.busy_s;
    all.crit_s += p.crit_s;
    all.stall_s += p.stall_s;
    all.compute_s += p.compute_s;
    all.memory_s += p.memory_s;
    all.launch_s += p.launch_s;
    all.transfer_s += p.transfer_s;
    all.kernels += p.kernels;
    all.transfers += p.transfers;
  }
  return all;
}

void phase_row(std::ostringstream& os, const PhaseProfile& p) {
  const Shares sh = shares_of(p);
  os << std::left << std::setw(24) << ("  " + p.name) << std::right
     << std::setw(12) << std::scientific << std::setprecision(3)
     << p.total_s() << std::setw(12) << p.crit_s << std::fixed
     << std::setprecision(1) << std::setw(8) << sh.compute << std::setw(8)
     << sh.memory << std::setw(8) << sh.launch << std::setw(8) << sh.transfer
     << std::setw(8) << sh.stall << "  " << to_string(p.bound()) << "\n";
}

obs::Json phase_json(const PhaseProfile& p) {
  const Shares sh = shares_of(p);
  obs::Json j = obs::Json::object();
  j.set("name", obs::Json::string(p.name));
  j.set("busy_s", obs::Json::number(p.busy_s));
  j.set("critical_s", obs::Json::number(p.crit_s));
  j.set("stall_s", obs::Json::number(p.stall_s));
  j.set("compute_s", obs::Json::number(p.compute_s));
  j.set("memory_s", obs::Json::number(p.memory_s));
  j.set("launch_s", obs::Json::number(p.launch_s));
  j.set("transfer_s", obs::Json::number(p.transfer_s));
  j.set("kernels", obs::Json::number(static_cast<double>(p.kernels)));
  j.set("transfers", obs::Json::number(static_cast<double>(p.transfers)));
  j.set("bound", obs::Json::string(to_string(p.bound())));
  obs::Json pct = obs::Json::object();
  pct.set("compute", obs::Json::number(sh.compute));
  pct.set("memory", obs::Json::number(sh.memory));
  pct.set("launch", obs::Json::number(sh.launch));
  pct.set("transfer", obs::Json::number(sh.transfer));
  pct.set("dependency_stall", obs::Json::number(sh.stall));
  j.set("pct", std::move(pct));
  return j;
}

}  // namespace

std::string bottleneck_report(const DagProfile& prof,
                              const std::string& title) {
  std::ostringstream os;
  os << title << "\n";
  os << "  machine: " << (prof.machine.empty() ? "?" : prof.machine)
     << "   events: " << prof.events.size() << "   dropped: " << prof.dropped
     << "\n";
  os << std::scientific << std::setprecision(6);
  os << "  makespan: " << prof.window_s << " s   critical path: "
     << prof.critical_s << " s (" << std::fixed << std::setprecision(2)
     << 100.0 * prof.coverage << "% coverage, " << prof.critical_path.size()
     << " steps)\n";
  os << "  serialized work: " << std::scientific << std::setprecision(6)
     << prof.busy_s << " s   overlap efficiency: " << std::fixed
     << std::setprecision(2) << prof.overlap_efficiency << "x\n";
  if (prof.dropped > 0) {
    os << "  WARNING: " << prof.dropped
       << " events dropped from the ring; attribution is partial\n";
  }

  os << "  streams:\n";
  for (const auto& s : prof.streams) {
    os << "    stream " << std::setw(2) << s.stream << ": " << std::setw(6)
       << s.events << " events, " << std::scientific << std::setprecision(3)
       << s.busy_s << " s busy, " << std::fixed << std::setprecision(1)
       << 100.0 * s.utilization << "% utilized\n";
  }

  write_edge_table(os, prof);

  os << std::left << std::setw(24) << "  phase" << std::right << std::setw(12)
     << "total (s)" << std::setw(12) << "crit (s)" << std::setw(8) << "comp%"
     << std::setw(8) << "mem%" << std::setw(8) << "launch%" << std::setw(8)
     << "xfer%" << std::setw(8) << "stall%" << "  bound\n";
  for (const auto& p : prof.phases) phase_row(os, p);
  phase_row(os, run_totals(prof));
  return os.str();
}

obs::Json profile_json(const DagProfile& prof, const Profiler* spans,
                       const std::string& name) {
  obs::Json j = obs::Json::object();
  j.set("schema", obs::Json::string("coe-prof-v1"));
  j.set("name", obs::Json::string(name));
  j.set("machine", obs::Json::string(prof.machine));
  j.set("launch_overhead_s", obs::Json::number(prof.launch_overhead));
  j.set("dropped_events",
        obs::Json::number(static_cast<double>(prof.dropped)));
  j.set("events", obs::Json::number(static_cast<double>(prof.events.size())));
  j.set("origin_s", obs::Json::number(prof.origin));
  j.set("makespan_s", obs::Json::number(prof.makespan));
  j.set("window_s", obs::Json::number(prof.window_s));
  j.set("busy_s", obs::Json::number(prof.busy_s));
  j.set("critical_s", obs::Json::number(prof.critical_s));
  j.set("coverage", obs::Json::number(prof.coverage));
  j.set("overlap_efficiency", obs::Json::number(prof.overlap_efficiency));

  j.set("critical_edge_seconds", edge_seconds_json(prof));
  j.set("critical_steps",
        obs::Json::number(static_cast<double>(prof.critical_path.size())));

  obs::Json streams = obs::Json::array();
  for (const auto& s : prof.streams) {
    obs::Json js = obs::Json::object();
    js.set("stream", obs::Json::number(s.stream));
    js.set("events", obs::Json::number(static_cast<double>(s.events)));
    js.set("busy_s", obs::Json::number(s.busy_s));
    js.set("utilization", obs::Json::number(s.utilization));
    streams.push(std::move(js));
  }
  j.set("streams", std::move(streams));

  obs::Json phases = obs::Json::array();
  for (const auto& p : prof.phases) phases.push(phase_json(p));
  j.set("phases", std::move(phases));

  if (spans && !spans->empty()) {
    j.set("spans", spans->to_json());
  } else {
    j.set("spans", obs::Json());
  }
  return j;
}

std::array<std::string, 2> flow_pair(const char* name, const char* cat,
                                     std::size_t id, FlowEnd from,
                                     FlowEnd to) {
  std::ostringstream s, f;
  s << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
    << "\",\"ph\":\"s\",\"id\":" << id
    << ",\"ts\":" << obs::Json::number(from.t_s * 1e6).dump()
    << ",\"pid\":" << from.pid << ",\"tid\":" << from.tid << "}";
  f << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
    << "\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << id
    << ",\"ts\":" << obs::Json::number(to.t_s * 1e6).dump()
    << ",\"pid\":" << to.pid << ",\"tid\":" << to.tid << "}";
  return {s.str(), f.str()};
}

std::vector<std::string> critical_path_flow_events(const DagProfile& prof) {
  std::vector<std::string> out;
  // One s->f flow pair per consecutive step; viewers render these as
  // arrows along the binding chain. Nothing else in the trace uses flow
  // ids, so a running counter suffices.
  for (std::size_t i = 0; i + 1 < prof.critical_path.size(); ++i) {
    const auto& a = prof.critical_path[i];
    const auto& b = prof.critical_path[i + 1];
    for (std::string& e : flow_pair("critical", "critical_path", i,
                                     {a.end_s, 0, a.lane},
                                     {b.start_s, 0, b.lane})) {
      out.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace coe::prof
