#pragma once
// The critical-path core (DESIGN.md section 12). One step/path result type,
// one backward walk, and one roofline split serve both views of the
// simulated schedule: prof::analyze over one rank's stream timeline (lanes
// are streams) and xray::analyze over the merged multi-rank replay (lanes
// are ranks, section 16). A view supplies only its binding rule — which
// predecessor's completion bound the current step's start — and its
// EdgeKind enum naming those rules.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/trace.hpp"

namespace coe::prof {

/// One step of a critical path, earliest-first. `event` indexes the view's
/// event list, `lane` is the stream or rank it ran on, and `via` names the
/// constraint that chained it to its predecessor. [start_s, end_s] is the
/// slice of the window the step accounts for; `seconds` is its share of
/// critical_s.
template <typename Edge>
struct CritStep {
  std::size_t event = 0;
  int lane = 0;
  Edge via = Edge::Root;
  double start_s = 0.0;
  double end_s = 0.0;
  double seconds = 0.0;
};

/// A view's binding rule applied at one cursor: the step it contributes
/// (none for a transparent link) and the cursor of the binding predecessor
/// (none ends the walk).
template <typename Edge, typename Cursor>
struct Hop {
  std::optional<CritStep<Edge>> step;
  std::optional<Cursor> next;
};

/// An extracted critical path and its tallies. `Edge` is a view's
/// six-valued edge enum with Root first.
template <typename Edge>
struct CriticalPath {
  std::vector<CritStep<Edge>> critical_path;  ///< earliest-first
  double critical_s = 0.0;  ///< summed step seconds
  /// critical_s over the window: 1.0 when the chain tiles it exactly, less
  /// when the trace is truncated or events are missing.
  double coverage = 0.0;
  double edge_seconds[6] = {0, 0, 0, 0, 0, 0};  ///< step seconds by `via`

  /// When edge_seconds accumulates: as steps are emitted (latest-first)
  /// or after ordering (earliest-first). Floating-point sums depend on
  /// order, so each view keeps the order its artifacts were pinned with.
  enum class Tally : std::uint8_t { AsWalked, EarliestFirst };

  /// The backward walk: follows `bind(cursor) -> Hop` from the terminal
  /// cursor until a hop has no predecessor or `budget` hops are spent,
  /// then orders the steps earliest-first and tallies critical_s,
  /// edge_seconds, and coverage over `window`. Returns false when the
  /// budget ran out (a binding rule that cycles).
  template <typename Cursor, typename Bind>
  bool walk(Cursor cur, std::size_t budget, double window, Tally tally,
            Bind&& bind) {
    auto add_edge = [this](const CritStep<Edge>& s) {
      edge_seconds[static_cast<std::size_t>(s.via)] += s.seconds;
    };
    bool ended = false;
    while (!ended && budget-- > 0) {
      Hop<Edge, Cursor> hop = bind(cur);
      if (hop.step) {
        critical_path.push_back(*hop.step);
        if (tally == Tally::AsWalked) add_edge(*hop.step);
      }
      ended = !hop.next;
      if (hop.next) cur = *hop.next;
    }
    std::reverse(critical_path.begin(), critical_path.end());
    for (const auto& s : critical_path) {
      critical_s += s.seconds;
      if (tally == Tally::EarliestFirst) add_edge(s);
    }
    coverage = window > 0.0 ? critical_s / window : 1.0;
    return ended;
  }
};

/// Roofline split of one traced event's duration. A kernel's launch
/// overhead (capped at its duration) is launch time and the remainder is
/// compute or memory time per its recorded bound; a transfer is all
/// transfer time. The four parts sum to the duration.
struct Roofline {
  double compute = 0.0, memory = 0.0, launch = 0.0, transfer = 0.0;
};

inline Roofline roofline(const obs::TraceEvent& e, double launch_overhead) {
  Roofline r;
  if (e.kind != obs::TraceEvent::Kind::Kernel) {
    r.transfer = e.duration;
    return r;
  }
  r.launch = std::min(e.duration, launch_overhead);
  (e.bound == obs::TraceEvent::Bound::Compute ? r.compute : r.memory) =
      e.duration - r.launch;
  return r;
}

}  // namespace coe::prof
