#pragma once
// Exporters for the DAG attribution: a human-readable bottleneck report,
// the coe-prof-v1 JSON document (the PROF_*.json artifact every profiled
// bench writes next to its BENCH_ JSON), and Chrome trace flow events that
// highlight the critical path in the timeline viewer. The critical-path
// writers (edge table, edge JSON, flow pair) also serve xray's reports.

#include <array>
#include <cstddef>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "prof/dag.hpp"
#include "prof/span.hpp"

namespace coe::prof {

/// Fixed-width text report: run summary (makespan, critical path,
/// coverage, overlap efficiency), per-stream utilization, critical-path
/// edge breakdown, and the per-phase five-way percentage table (the five
/// shares of each row sum to 100%).
std::string bottleneck_report(const DagProfile& prof,
                              const std::string& title);

/// Builds the coe-prof-v1 document. `spans` (optional) attaches the
/// Profiler tree with its per-region predicted-vs-measured skew.
obs::Json profile_json(const DagProfile& prof, const Profiler* spans,
                       const std::string& name);

/// Writes the "critical path enters via" table of a critical path: one row
/// per edge kind that carried time, with its seconds and share.
template <typename Edge>
void write_edge_table(std::ostream& os, const CriticalPath<Edge>& p) {
  os << "  critical path enters via:\n";
  for (std::size_t i = 0; i < 6; ++i) {
    if (p.edge_seconds[i] <= 0.0) continue;
    os << "    " << std::left << std::setw(14)
       << to_string(static_cast<Edge>(i)) << std::right << std::setw(12)
       << std::scientific << std::setprecision(3) << p.edge_seconds[i]
       << " s  (" << std::fixed << std::setprecision(1)
       << (p.critical_s > 0.0 ? 100.0 * p.edge_seconds[i] / p.critical_s
                              : 0.0)
       << "%)\n";
  }
}

/// The critical_edge_seconds object: seconds entered through each edge
/// kind, keyed by its name.
template <typename Edge>
obs::Json edge_seconds_json(const CriticalPath<Edge>& p) {
  obs::Json edges = obs::Json::object();
  for (std::size_t i = 0; i < 6; ++i) {
    edges.set(to_string(static_cast<Edge>(i)),
              obs::Json::number(p.edge_seconds[i]));
  }
  return edges;
}

/// One end of a Chrome flow arrow: simulated seconds, viewer process, row.
struct FlowEnd {
  double t_s = 0.0;
  int pid = 0;
  int tid = 0;
};

/// A Chrome flow arrow as its pre-serialized "s" and "f" events (the "f"
/// binds to the enclosing slice's end), both on flow `id`.
std::array<std::string, 2> flow_pair(const char* name, const char* cat,
                                     std::size_t id, FlowEnd from,
                                     FlowEnd to);

/// Pre-serialized Chrome flow events ("ph":"s"/"f" pairs on id 1) linking
/// consecutive critical-path steps; pass to obs::write_chrome_trace as
/// `extra_events` so viewers draw the critical path as arrows.
std::vector<std::string> critical_path_flow_events(const DagProfile& prof);

}  // namespace coe::prof
