#include "xray/merge.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

namespace coe::xray {

const char* to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::Root: return "root";
    case EdgeKind::Program: return "program";
    case EdgeKind::Message: return "message";
    case EdgeKind::Injection: return "injection";
    case EdgeKind::Ejection: return "ejection";
    case EdgeKind::Collective: return "collective";
  }
  return "?";
}

const char* to_string(Blame b) {
  switch (b) {
    case Blame::Compute: return "compute";
    case Blame::Memory: return "memory";
    case Blame::LaunchTransfer: return "launch_transfer";
    case Blame::CommWait: return "comm_wait";
    case Blame::Imbalance: return "imbalance";
  }
  return "?";
}

Blame RankBlame::dominant() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < 5; ++i) {
    if (seconds[i] > seconds[best]) best = i;
  }
  return static_cast<Blame>(best);
}

namespace {

/// Which interval of an event the backward walk is currently chained
/// through: the rank's program clock, a send's injection-engine (wire)
/// occupancy, or a receive's ejection-engine drain.
enum class Aspect : std::uint8_t { Program, Wire, Eject };

/// Where the backward walk stands: an event, the interval of it the chain
/// runs through, and the time that interval must end at.
struct Cursor {
  std::size_t ei = 0;
  Aspect aspect = Aspect::Program;
  double upper = 0.0;
};

/// The cross-rank binding rules over the replay clocks (program, wire,
/// eject), the multi-rank view's input to the prof critical-path walk.
struct Rules {
  const net::Replay& rep;
  std::vector<std::string>& diagnostics;
  double eps;
  // Per-event index of the same rank's previous Send / previous Recv (the
  // event holding the engine before this one), -1 when none.
  std::vector<std::ptrdiff_t> prev_send;
  std::vector<std::ptrdiff_t> prev_recv;

  Rules(const net::Replay& r, std::vector<std::string>& diags)
      : rep(r), diagnostics(diags), eps(1e-12 * std::max(1.0, r.makespan_s)) {
    prev_send.assign(rep.events.size(), -1);
    prev_recv.assign(rep.events.size(), -1);
    for (const auto& order : rep.rank_events) {
      std::ptrdiff_t ls = -1, lr = -1;
      for (std::size_t ei : order) {
        prev_send[ei] = ls;
        prev_recv[ei] = lr;
        const auto k = rep.events[ei].ev.kind;
        if (k == net::NetEvent::Kind::Send) ls = static_cast<std::ptrdiff_t>(ei);
        if (k == net::NetEvent::Kind::Recv) lr = static_cast<std::ptrdiff_t>(ei);
      }
    }
  }

  /// Cursor onto event `ei` (none when negative); the walk fills `upper`.
  static std::optional<Cursor> link(std::ptrdiff_t ei, Aspect aspect) {
    if (ei < 0) return std::nullopt;
    return Cursor{static_cast<std::size_t>(ei), aspect, 0.0};
  }

  /// Same-rank program predecessor of event `ei` (the event whose t_after
  /// is this one's t_before).
  std::optional<Cursor> program_pred(std::size_t ei) const {
    const net::ReplayEvent& re = rep.events[ei];
    if (re.pos == 0) return std::nullopt;
    const auto& order =
        rep.rank_events[static_cast<std::size_t>(re.ev.rank)];
    return Cursor{order[re.pos - 1], Aspect::Program, 0.0};
  }

  void broke(int rank, double t) {
    diagnostics.push_back("critical-path chain broke at rank " +
                          std::to_string(rank) + " t=" + std::to_string(t) +
                          "s — inconsistent replay");
  }

  /// The step `c` contributes and the cursor it chains to. Only receives
  /// are entered through Eject, so a send's wire interval and a blocking
  /// send's program advance share one rule.
  prof::Hop<EdgeKind, Cursor> operator()(const Cursor& c) {
    const net::ReplayEvent& re = rep.events[c.ei];
    const auto kind = re.ev.kind;
    double lower = 0.0;
    EdgeKind via = EdgeKind::Root;
    std::optional<Cursor> pred;

    if (c.aspect == Aspect::Wire ||
        (kind == net::NetEvent::Kind::Send && re.ev.blocking &&
         re.t_after > re.t_before)) {
      // A send's wire occupancy [wire_start, upper]; upper includes the
      // alpha latency when the consumer is a message edge. A blocking send
      // rode the wire to wire_end on its own program clock.
      lower = re.wire_start;
      if (re.t_before >= re.inj_before) {
        via = EdgeKind::Program;
        pred = program_pred(c.ei);
      } else {
        via = EdgeKind::Injection;
        pred = link(prev_send[c.ei], Aspect::Wire);
      }
    } else if (c.aspect == Aspect::Eject ||
               (kind == net::NetEvent::Kind::Recv &&
                re.t_after > re.t_before)) {
      // A receive's drain [eject_start, done]: bound either by the
      // matched message's arrival or by the ejection engine still
      // draining the previous receive.
      lower = re.eject_start;
      if (re.arrival >= re.ej_before) {
        via = EdgeKind::Message;
        pred = link(re.match, Aspect::Wire);
      } else {
        via = EdgeKind::Ejection;
        pred = link(prev_recv[c.ei], Aspect::Eject);
      }
    } else if (kind == net::NetEvent::Kind::Allreduce ||
               kind == net::NetEvent::Kind::Barrier) {
      if (re.entry <= re.t_before) {
        // This rank arrived last: the collective chains to its own
        // program.
        lower = re.t_before;
        via = EdgeKind::Program;
        pred = program_pred(c.ei);
      } else {
        // Bound by the last-arriving member of the group.
        lower = re.entry;
        via = EdgeKind::Collective;
        if (re.group >= 0 &&
            static_cast<std::size_t>(re.group) < rep.groups.size()) {
          std::size_t late = c.ei;
          double best = -1.0;
          for (std::size_t mi :
               rep.groups[static_cast<std::size_t>(re.group)]) {
            if (rep.events[mi].t_before > best) {
              best = rep.events[mi].t_before;
              late = mi;
            }
          }
          pred = program_pred(late);
        }
      }
    } else {
      // Compute, posted send (alpha), or any zero-advance event: plain
      // program chaining.
      pred = program_pred(c.ei);
      if (re.t_after <= re.t_before) {
        // No clock advance — transparent link in the chain.
        if (!pred) {
          if (c.upper > eps) broke(re.ev.rank, c.upper);
          return {};
        }
        pred->upper = c.upper;
        return {std::nullopt, pred};
      }
      lower = re.t_before;
      via = EdgeKind::Program;
    }

    if (!pred) via = EdgeKind::Root;
    prof::Hop<EdgeKind, Cursor> hop;
    hop.step = prof::CritStep<EdgeKind>{c.ei, re.ev.rank, via,
                                        lower, c.upper, c.upper - lower};
    if (!pred || lower <= eps) {
      if (!pred && lower > eps) broke(re.ev.rank, lower);
      return hop;
    }
    pred->upper = lower;
    hop.next = pred;
    return hop;
  }
};

/// Index of rank `r`'s last event of `kind`, -1 when it has none.
std::ptrdiff_t last_of(const net::Replay& rep, std::size_t r,
                       net::NetEvent::Kind kind) {
  std::ptrdiff_t last = -1;
  for (std::size_t ei : rep.rank_events[r]) {
    if (rep.events[ei].ev.kind == kind) last = static_cast<std::ptrdiff_t>(ei);
  }
  return last;
}

/// Finds the terminal constraint — the (event, aspect) whose completion
/// time equals the event makespan — and walks back from it.
void critical_path(const net::Replay& rep, Report& out) {
  const double M = rep.makespan_s;
  if (M <= 0.0 || rep.events.empty()) {
    out.coverage = 1.0;
    return;
  }
  std::optional<Cursor> terminal;
  for (std::size_t r = 0; r < rep.finish.size() && !terminal; ++r) {
    if (rep.finish[r] >= M && !rep.rank_events[r].empty()) {
      terminal = Cursor{rep.rank_events[r].back(), Aspect::Program, M};
    }
    // An engine that outlived the program: the makespan is the last posted
    // send still on the wire, or the last receive still draining.
    if (!terminal && rep.inj[r] >= M) {
      terminal = Rules::link(last_of(rep, r, net::NetEvent::Kind::Send),
                             Aspect::Wire);
    }
    if (!terminal && rep.ej[r] >= M) {
      terminal = Rules::link(last_of(rep, r, net::NetEvent::Kind::Recv),
                             Aspect::Eject);
    }
  }
  if (!terminal) return;
  terminal->upper = M;
  Rules rules(rep, out.diagnostics);
  // Positions strictly decrease along every rank's chain, so the walk
  // cannot loop; the budget is a belt-and-braces guard.
  if (!out.walk(*terminal, 2 * rep.events.size() + 16, M,
                Report::Tally::AsWalked, rules)) {
    out.diagnostics.push_back(
        "critical-path walk exceeded its step budget — inconsistent replay");
  }
}

void phase_imbalance(const MergeInputs& in, Report& out) {
  if (!in.rank_traces) return;
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> per_phase;
  const std::size_t nr = static_cast<std::size_t>(in.ranks);
  for (std::size_t r = 0; r < nr && r < in.rank_traces->size(); ++r) {
    for (const auto& e : (*in.rank_traces)[r].snapshot()) {
      if (obs::is_marker(e.kind) || e.duration <= 0.0) continue;
      auto [it, fresh] = per_phase.try_emplace(e.phase);
      if (fresh) {
        it->second.assign(nr, 0.0);
        order.push_back(e.phase);
      }
      it->second[r] += e.duration;
    }
  }
  for (const std::string& name : order) {
    PhaseImbalance p;
    p.name = name;
    p.per_rank_s = per_phase[name];
    double sum = 0.0;
    for (std::size_t r = 0; r < p.per_rank_s.size(); ++r) {
      sum += p.per_rank_s[r];
      if (p.per_rank_s[r] > p.max_s) {
        p.max_s = p.per_rank_s[r];
        p.max_rank = static_cast<int>(r);
      }
    }
    p.mean_s = p.per_rank_s.empty() ? 0.0 : sum / p.per_rank_s.size();
    p.ratio = p.mean_s > 0.0 ? p.max_s / p.mean_s : 1.0;
    out.phases.push_back(std::move(p));
  }
}

}  // namespace

Report analyze(const MergeInputs& in) {
  Report out;
  if (!in.log || !in.cluster || in.ranks <= 0) {
    out.well_formed = false;
    out.diagnostics.push_back("xray::analyze needs a log, a cluster model, "
                              "and a positive rank count");
    return out;
  }
  out.ranks = in.ranks;
  out.replay = net::replay(*in.log, *in.cluster, in.ranks);
  const net::Replay& rep = out.replay;
  out.diagnostics = rep.diagnostics;
  out.makespan_s = rep.makespan_s;
  out.timeline_s = rep.result.timeline_s;
  for (const auto& re : rep.events) {
    if (re.ev.kind == net::NetEvent::Kind::Recv && re.match >= 0) {
      ++out.matched_messages;
    }
    if (re.ev.kind == net::NetEvent::Kind::Send && re.match < 0) {
      ++out.unmatched_sends;
    }
  }

  // The distributed critical path only makes sense over a replay that ran
  // to completion; a deadlocked one has partial clocks.
  if (rep.result.well_formed) critical_path(rep, out);

  // Five-way blame. Per rank: program-clock advances classify directly
  // (compute stays compute for now; sends, receive waits + drains, and
  // collective costs are comm-wait; waiting at collective entry for a
  // slower rank is imbalance), the tail from the rank's finish to the
  // event makespan is imbalance, and any bisection-floor excess beyond the
  // makespan is comm-wait on every rank (the fabric held everyone back).
  // The five buckets therefore sum to timeline_s exactly, per rank.
  const std::size_t nr = static_cast<std::size_t>(in.ranks);
  out.blame.resize(nr);
  std::vector<double> raw_busy(nr, 0.0);
  for (std::size_t r = 0; r < nr && r < rep.rank_events.size(); ++r) {
    RankBlame& b = out.blame[r];
    b.rank = static_cast<int>(r);
    auto add = [&](Blame k, double s) {
      b.seconds[static_cast<std::size_t>(k)] += s;
    };
    for (std::size_t ei : rep.rank_events[r]) {
      const net::ReplayEvent& re = rep.events[ei];
      const double adv = re.t_after - re.t_before;
      switch (re.ev.kind) {
        case net::NetEvent::Kind::Compute:
          raw_busy[r] += adv;
          break;
        case net::NetEvent::Kind::Send:
        case net::NetEvent::Kind::Recv:
          add(Blame::CommWait, adv);
          break;
        case net::NetEvent::Kind::Allreduce:
        case net::NetEvent::Kind::Barrier:
          add(Blame::Imbalance, std::max(0.0, re.entry - re.t_before));
          add(Blame::CommWait, re.cost);
          break;
      }
    }
    const double finish = r < rep.finish.size() ? rep.finish[r] : 0.0;
    add(Blame::Imbalance, std::max(0.0, out.makespan_s - finish));
    add(Blame::CommWait, std::max(0.0, out.timeline_s - out.makespan_s));
    b.busy_s = raw_busy[r];

    // Refine the rank's busy seconds by the roofline fractions of its
    // kernel trace; without one everything stays Compute.
    double comp = 0.0, mem = 0.0, lx = 0.0;
    if (in.rank_traces && r < in.rank_traces->size()) {
      const obs::TraceBuffer& buf = (*in.rank_traces)[r];
      for (const auto& e : buf.snapshot()) {
        if (obs::is_marker(e.kind)) continue;
        const prof::Roofline split = prof::roofline(e, buf.launch_overhead());
        comp += split.compute;
        mem += split.memory;
        lx += split.launch + split.transfer;
      }
    }
    const double tot = comp + mem + lx;
    if (tot > 0.0) {
      comp /= tot;
      mem /= tot;
      lx /= tot;
    } else {
      comp = 1.0;
    }
    add(Blame::Compute, raw_busy[r] * comp);
    add(Blame::Memory, raw_busy[r] * mem);
    add(Blame::LaunchTransfer, raw_busy[r] * lx);
  }

  // Fleet view: across-rank mean of every bucket.
  out.fleet.rank = -1;
  double busy_sum = 0.0, busy_max = 0.0;
  for (std::size_t r = 0; r < nr; ++r) {
    for (std::size_t k = 0; k < 5; ++k) {
      out.fleet.seconds[k] += out.blame[r].seconds[k] / nr;
    }
    busy_sum += raw_busy[r];
    if (raw_busy[r] > busy_max) {
      busy_max = raw_busy[r];
      out.straggler_rank = static_cast<int>(r);
    }
  }
  out.fleet.busy_s = busy_sum / nr;
  if (busy_sum > 0.0) {
    out.imbalance_ratio = busy_max / (busy_sum / nr);
    std::vector<std::size_t> by_busy(nr);
    for (std::size_t r = 0; r < nr; ++r) by_busy[r] = r;
    std::stable_sort(by_busy.begin(), by_busy.end(),
                     [&](std::size_t a, std::size_t b) {
                       return raw_busy[a] > raw_busy[b];
                     });
    const std::size_t k = std::min<std::size_t>(nr, 5);
    for (std::size_t i = 0; i < k; ++i) {
      out.stragglers.push_back({static_cast<int>(by_busy[i]),
                                raw_busy[by_busy[i]],
                                raw_busy[by_busy[i]] / busy_sum});
    }
  }

  phase_imbalance(in, out);
  out.well_formed = rep.result.well_formed && out.diagnostics.empty();
  return out;
}

}  // namespace coe::xray
