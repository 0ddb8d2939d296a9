#include "xray/report.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/trace.hpp"
#include "prof/report.hpp"

namespace coe::xray {

namespace {

const char* kind_name(net::NetEvent::Kind k) {
  switch (k) {
    case net::NetEvent::Kind::Send: return "send";
    case net::NetEvent::Kind::Recv: return "recv";
    case net::NetEvent::Kind::Compute: return "compute";
    case net::NetEvent::Kind::Allreduce: return "allreduce";
    case net::NetEvent::Kind::Barrier: return "barrier";
  }
  return "?";
}

obs::Json blame_json(const RankBlame& b) {
  obs::Json j = obs::Json::object();
  j.set("rank", obs::Json::number(b.rank));
  j.set("busy_s", obs::Json::number(b.busy_s));
  obs::Json sec = obs::Json::object();
  obs::Json pct = obs::Json::object();
  for (std::size_t k = 0; k < 5; ++k) {
    const Blame bk = static_cast<Blame>(k);
    sec.set(to_string(bk), obs::Json::number(b.seconds[k]));
    pct.set(to_string(bk), obs::Json::number(b.pct(bk)));
  }
  j.set("seconds", std::move(sec));
  j.set("pct", std::move(pct));
  j.set("dominant", obs::Json::string(to_string(b.dominant())));
  return j;
}

void blame_row(std::ostringstream& os, const RankBlame& b) {
  os << "    " << std::right << std::setw(5)
     << (b.rank < 0 ? std::string("fleet") : std::to_string(b.rank))
     << std::fixed << std::setprecision(1);
  for (std::size_t k = 0; k < 5; ++k) {
    os << std::setw(9) << b.pct(static_cast<Blame>(k));
  }
  os << "  " << to_string(b.dominant()) << "\n";
}

/// The viewer row merged net events land on; far above any simulated
/// stream id, so kernel rows and the net row never collide.
constexpr int kNetTid = 1000;

/// Piecewise map from one rank's local simulated clock onto the global
/// replay clock, built from its logged Compute windows: the k-th logged
/// compute interval [cum, cum+len) of local time ran at [global, global+len)
/// on the merged timeline.
struct ClockMap {
  struct Window {
    double local = 0.0, global = 0.0, len = 0.0;
  };
  std::vector<Window> windows;

  double to_global(double local) const {
    if (windows.empty()) return local;
    // Last window starting at or before `local` (windows are sorted).
    std::size_t lo = 0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (windows[i].local <= local) lo = i;
      else break;
    }
    const Window& w = windows[lo];
    // Clamp into the window: events past the last logged compute delta sit
    // at that window's end rather than drifting off the timeline.
    return w.global + std::min(std::max(0.0, local - w.local), w.len);
  }
};

ClockMap clock_map(const net::Replay& rep, std::size_t rank) {
  ClockMap m;
  if (rank >= rep.rank_events.size()) return m;
  double cum = 0.0;
  for (std::size_t ei : rep.rank_events[rank]) {
    const net::ReplayEvent& re = rep.events[ei];
    if (re.ev.kind != net::NetEvent::Kind::Compute) continue;
    m.windows.push_back({cum, re.t_before, re.ev.seconds});
    cum += re.ev.seconds;
  }
  return m;
}

}  // namespace

std::string straggler_report(const Report& rep, const std::string& title) {
  std::ostringstream os;
  os << title << "\n";
  os << "  ranks: " << rep.ranks << "   messages: " << rep.matched_messages
     << " matched";
  if (rep.unmatched_sends > 0) {
    os << ", " << rep.unmatched_sends << " UNMATCHED";
  }
  os << "   well-formed: " << (rep.well_formed ? "yes" : "NO") << "\n";
  os << std::scientific << std::setprecision(6);
  os << "  makespan: " << rep.makespan_s << " s   timeline: "
     << rep.timeline_s << " s   sequential bound: "
     << rep.replay.result.sequential_s << " s\n";
  os << "  distributed critical path: " << rep.critical_s << " s ("
     << std::fixed << std::setprecision(2) << 100.0 * rep.coverage
     << "% of makespan, " << rep.critical_path.size() << " steps)\n";
  prof::write_edge_table(os, rep);

  os << "  imbalance: max/mean busy " << std::fixed << std::setprecision(2)
     << rep.imbalance_ratio << "x";
  if (rep.straggler_rank >= 0) {
    os << "   dominant straggler: rank " << rep.straggler_rank;
  }
  os << "\n";
  if (!rep.stragglers.empty()) {
    os << "  stragglers (by logged compute):\n";
    for (const Straggler& s : rep.stragglers) {
      os << "    rank " << std::setw(4) << s.rank << ": " << std::scientific
         << std::setprecision(3) << s.busy_s << " s busy  (" << std::fixed
         << std::setprecision(1) << 100.0 * s.share << "% of fleet)\n";
    }
  }

  os << "  blame (% of timeline):\n";
  os << "    " << std::right << std::setw(5) << "rank" << std::setw(9)
     << "comp%" << std::setw(9) << "mem%" << std::setw(9) << "launch%"
     << std::setw(9) << "comm%" << std::setw(9) << "imbal%"
     << "  dominant\n";
  blame_row(os, rep.fleet);
  // Per-rank rows for the interesting ranks only: the stragglers plus the
  // worst comm-waiters (their neighbors, in a skewed run).
  std::set<int> rows;
  for (const Straggler& s : rep.stragglers) rows.insert(s.rank);
  std::vector<int> by_comm;
  for (const RankBlame& b : rep.blame) by_comm.push_back(b.rank);
  std::stable_sort(by_comm.begin(), by_comm.end(), [&](int a, int b) {
    return rep.blame[static_cast<std::size_t>(a)].pct(Blame::CommWait) >
           rep.blame[static_cast<std::size_t>(b)].pct(Blame::CommWait);
  });
  for (std::size_t i = 0; i < by_comm.size() && i < 4; ++i) {
    rows.insert(by_comm[i]);
  }
  for (int r : rows) {
    blame_row(os, rep.blame[static_cast<std::size_t>(r)]);
  }

  if (!rep.phases.empty()) {
    os << "  phase imbalance (across ranks):\n";
    os << "    " << std::left << std::setw(16) << "phase" << std::right
       << std::setw(12) << "mean (s)" << std::setw(12) << "max (s)"
       << std::setw(10) << "max rank" << std::setw(8) << "ratio\n";
    for (const PhaseImbalance& p : rep.phases) {
      os << "    " << std::left << std::setw(16) << p.name << std::right
         << std::setw(12) << std::scientific << std::setprecision(3)
         << p.mean_s << std::setw(12) << p.max_s << std::setw(10)
         << p.max_rank << std::setw(8) << std::fixed << std::setprecision(2)
         << p.ratio << "\n";
    }
  }

  for (const std::string& d : rep.diagnostics) {
    os << "  DIAGNOSTIC: " << d << "\n";
  }
  return os.str();
}

obs::Json report_json(const Report& rep, const std::string& name) {
  obs::Json j = obs::Json::object();
  j.set("schema", obs::Json::string("coe-xray-v1"));
  j.set("name", obs::Json::string(name));
  j.set("ranks", obs::Json::number(rep.ranks));
  j.set("well_formed", obs::Json::boolean(rep.well_formed));
  obs::Json diags = obs::Json::array();
  for (const std::string& d : rep.diagnostics) {
    diags.push(obs::Json::string(d));
  }
  j.set("diagnostics", std::move(diags));
  j.set("messages",
        obs::Json::number(static_cast<double>(rep.replay.result.messages)));
  j.set("matched",
        obs::Json::number(static_cast<double>(rep.matched_messages)));
  j.set("unmatched_sends",
        obs::Json::number(static_cast<double>(rep.unmatched_sends)));
  j.set("bytes", obs::Json::number(rep.replay.result.bytes));
  j.set("makespan_s", obs::Json::number(rep.makespan_s));
  j.set("timeline_s", obs::Json::number(rep.timeline_s));
  j.set("sequential_s", obs::Json::number(rep.replay.result.sequential_s));
  j.set("speedup", obs::Json::number(rep.replay.result.speedup()));
  j.set("critical_s", obs::Json::number(rep.critical_s));
  j.set("coverage", obs::Json::number(rep.coverage));
  j.set("critical_steps",
        obs::Json::number(static_cast<double>(rep.critical_path.size())));

  j.set("critical_edge_seconds", prof::edge_seconds_json(rep));

  // The full path can run to thousands of steps on a long run; the
  // document keeps a bounded prefix (earliest-first) and says so.
  constexpr std::size_t kMaxSteps = 2048;
  obs::Json steps = obs::Json::array();
  for (std::size_t i = 0; i < rep.critical_path.size() && i < kMaxSteps;
       ++i) {
    const auto& s = rep.critical_path[i];
    const net::NetEvent& e = rep.replay.events[s.event].ev;
    obs::Json js = obs::Json::object();
    js.set("rank", obs::Json::number(s.lane));
    js.set("via", obs::Json::string(to_string(s.via)));
    js.set("kind", obs::Json::string(kind_name(e.kind)));
    js.set("peer", obs::Json::number(e.peer));
    js.set("start_s", obs::Json::number(s.start_s));
    js.set("end_s", obs::Json::number(s.end_s));
    steps.push(std::move(js));
  }
  j.set("critical_path", std::move(steps));
  j.set("critical_path_truncated",
        obs::Json::boolean(rep.critical_path.size() > kMaxSteps));

  obs::Json imb = obs::Json::object();
  imb.set("ratio", obs::Json::number(rep.imbalance_ratio));
  imb.set("straggler_rank", obs::Json::number(rep.straggler_rank));
  imb.set("mean_busy_s", obs::Json::number(rep.fleet.busy_s));
  double max_busy = 0.0;
  for (const RankBlame& b : rep.blame) max_busy = std::max(max_busy, b.busy_s);
  imb.set("max_busy_s", obs::Json::number(max_busy));
  j.set("imbalance", std::move(imb));

  obs::Json stragglers = obs::Json::array();
  for (const Straggler& s : rep.stragglers) {
    obs::Json js = obs::Json::object();
    js.set("rank", obs::Json::number(s.rank));
    js.set("busy_s", obs::Json::number(s.busy_s));
    js.set("share", obs::Json::number(s.share));
    stragglers.push(std::move(js));
  }
  j.set("stragglers", std::move(stragglers));

  obs::Json blame = obs::Json::array();
  for (const RankBlame& b : rep.blame) blame.push(blame_json(b));
  j.set("blame", std::move(blame));
  j.set("fleet_blame", blame_json(rep.fleet));

  obs::Json phases = obs::Json::array();
  for (const PhaseImbalance& p : rep.phases) {
    obs::Json jp = obs::Json::object();
    jp.set("name", obs::Json::string(p.name));
    jp.set("mean_s", obs::Json::number(p.mean_s));
    jp.set("max_s", obs::Json::number(p.max_s));
    jp.set("max_rank", obs::Json::number(p.max_rank));
    jp.set("ratio", obs::Json::number(p.ratio));
    phases.push(std::move(jp));
  }
  j.set("phases", std::move(phases));
  return j;
}

void write_merged_chrome_trace(
    std::ostream& os, const Report& rep,
    const std::vector<obs::TraceBuffer>* rank_traces) {
  const net::Replay& replay = rep.replay;
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&]() {
    if (!first) os << ",";
    first = false;
  };

  std::uint64_t dropped = 0;
  std::string machine;
  double overhead = 0.0;
  for (int r = 0; r < rep.ranks; ++r) {
    sep();
    os << obs::process_metadata_events(r, "rank " + std::to_string(r));
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" << r
       << ",\"tid\":" << kNetTid << ",\"args\":{\"name\":\"net\"}}";
    if (rank_traces && static_cast<std::size_t>(r) < rank_traces->size()) {
      const obs::TraceBuffer& buf = (*rank_traces)[static_cast<std::size_t>(r)];
      dropped += buf.dropped();
      if (machine.empty()) {
        machine = buf.source();
        overhead = buf.launch_overhead();
      }
    }
  }

  // The replayed net events, one complete event per action on the rank's
  // net row. Times are replay seconds -> trace microseconds.
  for (const net::ReplayEvent& re : replay.events) {
    const net::NetEvent& e = re.ev;
    if (e.rank < 0 || e.rank >= rep.ranks) continue;
    double start = re.t_before;
    double end = re.t_after;
    if (e.kind == net::NetEvent::Kind::Send) {
      start = re.wire_start;
      end = re.wire_end;
    } else if (e.kind == net::NetEvent::Kind::Recv) {
      end = std::max(re.done, re.t_before);
    }
    std::string name = kind_name(e.kind);
    if (e.kind == net::NetEvent::Kind::Send) {
      name += "->" + std::to_string(e.peer);
    } else if (e.kind == net::NetEvent::Kind::Recv) {
      name += "<-" + std::to_string(e.peer);
    }
    sep();
    // args carry "net_kind" (not "kind") so parse_chrome_trace treats the
    // net rows as decoration and only round-trips the kernel events.
    os << "{\"name\":\"" << obs::Json::escape(name)
       << "\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":"
       << obs::Json::number(start * 1e6).dump() << ",\"dur\":"
       << obs::Json::number(std::max(0.0, end - start) * 1e6).dump()
       << ",\"pid\":" << e.rank << ",\"tid\":" << kNetTid
       << ",\"args\":{\"net_kind\":\"" << kind_name(e.kind)
       << "\",\"peer\":" << e.peer << ",\"tag\":" << e.tag << ",\"bytes\":"
       << obs::Json::number(e.bytes).dump() << "}}";
  }

  // Flow arrows for matched Send/Recv pairs: from the send's wire start on
  // the source rank to the receive's completion on the destination.
  std::size_t flow = 0;
  for (const net::ReplayEvent& re : replay.events) {
    if (re.ev.kind != net::NetEvent::Kind::Recv || re.match < 0) continue;
    const net::ReplayEvent& snd =
        replay.events[static_cast<std::size_t>(re.match)];
    if (snd.ev.rank < 0 || snd.ev.rank >= rep.ranks || re.ev.rank < 0 ||
        re.ev.rank >= rep.ranks) {
      continue;
    }
    sep();
    const auto pair =
        prof::flow_pair("msg", "xray_msg", flow++,
                        {snd.wire_start, snd.ev.rank, kNetTid},
                        {re.done, re.ev.rank, kNetTid});
    os << pair[0] << "," << pair[1];
  }

  // Per-rank kernels/transfers, mapped from rank-local simulated time onto
  // the global clock through the rank's logged compute windows.
  if (rank_traces) {
    for (int r = 0; r < rep.ranks &&
                    static_cast<std::size_t>(r) < rank_traces->size();
         ++r) {
      const ClockMap map = clock_map(replay, static_cast<std::size_t>(r));
      for (const auto& e :
           (*rank_traces)[static_cast<std::size_t>(r)].snapshot()) {
        if (obs::is_marker(e.kind)) continue;
        const double g = map.to_global(e.t_start);
        sep();
        os << "{\"name\":\"" << obs::Json::escape(e.label) << "\",\"cat\":\""
           << obs::Json::escape(e.phase) << "\",\"ph\":\"X\",\"ts\":"
           << obs::Json::number(g * 1e6).dump() << ",\"dur\":"
           << obs::Json::number(e.duration * 1e6).dump() << ",\"pid\":" << r
           << ",\"tid\":" << e.stream << ",\"args\":{\"kind\":\""
           << to_string(e.kind) << "\",\"bound\":\"" << to_string(e.bound)
           << "\",\"backend\":\"" << obs::Json::escape(e.backend)
           << "\",\"flops\":" << obs::Json::number(e.flops).dump()
           << ",\"bytes\":" << obs::Json::number(e.bytes).dump()
           << ",\"stream\":" << e.stream << ",\"dep\":" << e.dep << "}}";
      }
    }
  }

  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << dropped << ",\"machine\":\"" << obs::Json::escape(machine)
     << "\",\"launch_overhead_s\":" << obs::Json::number(overhead).dump()
     << ",\"ranks\":" << rep.ranks << ",\"merged\":true}}";
}

std::string merged_chrome_trace_json(
    const Report& rep, const std::vector<obs::TraceBuffer>* rank_traces) {
  std::ostringstream os;
  write_merged_chrome_trace(os, rep, rank_traces);
  return os.str();
}

void publish(const Report& rep, obs::MetricsRegistry& metrics) {
  metrics.set("xray.ranks", rep.ranks);
  metrics.set("xray.well_formed", rep.well_formed ? 1.0 : 0.0);
  metrics.set("xray.messages",
              static_cast<double>(rep.replay.result.messages));
  metrics.set("xray.matched", static_cast<double>(rep.matched_messages));
  metrics.set("xray.unmatched_sends",
              static_cast<double>(rep.unmatched_sends));
  metrics.set("xray.makespan_s", rep.makespan_s);
  metrics.set("xray.timeline_s", rep.timeline_s);
  metrics.set("xray.critical_s", rep.critical_s);
  metrics.set("xray.coverage", rep.coverage);
  metrics.set("xray.imbalance_ratio", rep.imbalance_ratio);
  metrics.set("xray.straggler_rank", rep.straggler_rank);
  metrics.set("xray.straggler_share",
              rep.stragglers.empty() ? 0.0 : rep.stragglers.front().share);
  for (std::size_t k = 0; k < 5; ++k) {
    const Blame b = static_cast<Blame>(k);
    metrics.set(std::string("xray.blame.") + to_string(b) + "_pct",
                rep.fleet.pct(b));
  }
}

bool write_artifacts(const std::string& dir, const std::string& name,
                     const Report& rep,
                     const std::vector<obs::TraceBuffer>* rank_traces) {
  {
    std::ofstream os(dir + "/XRAY_" + name + ".json");
    if (!os) return false;
    os << report_json(rep, name).dump() << "\n";
  }
  if (rank_traces) {
    std::ofstream os(dir + "/XTRACE_" + name + ".json");
    if (!os) return false;
    write_merged_chrome_trace(os, rep, rank_traces);
    os << "\n";
  }
  return true;
}

}  // namespace coe::xray
