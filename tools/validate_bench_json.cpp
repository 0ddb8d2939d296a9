// Validates bench artifacts. Usage:
//
//   validate_bench_json FILE.json [FILE2.json ...]
//
// Each file is dispatched by content: a "traceEvents" array is validated
// as a Chrome trace (TRACE_*.json, including the otherData metadata
// write_chrome_trace stamps), schema "coe-prof-v1" as a PROF_*.json
// attribution document (including the phase percentage breakdowns summing
// to 100), schema "coe-xray-v1" as an XRAY_*.json merged cluster report
// (blame splits summing to 100, critical-path steps abutting in time,
// coverage <= 1), and schema "coe-bench-v1" as a bench report (DESIGN.md
// section 10.3). Reports per-file PASS/FAIL; exits nonzero if any file
// fails. When a bench report references a trace file that exists next to
// it, the trace is parsed and checked too.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

using coe::obs::Json;

std::vector<std::string> g_errors;

void fail(const std::string& what) { g_errors.push_back(what); }

void check_number(const Json& o, const char* key, bool non_negative = true) {
  if (!o.contains(key)) return fail(std::string("missing \"") + key + "\"");
  const Json& v = o.at(key);
  if (v.type() != Json::Type::Number) {
    return fail(std::string("\"") + key + "\" is not a number");
  }
  if (non_negative && v.as_number() < 0.0) {
    fail(std::string("\"") + key + "\" is negative");
  }
}

void check_metrics_section(const Json& metrics, const char* key) {
  if (!metrics.contains(key)) {
    return fail(std::string("metrics missing \"") + key + "\"");
  }
  if (metrics.at(key).type() != Json::Type::Object) {
    fail(std::string("metrics.") + key + " is not an object");
  }
}

/// One metrics family's fixed schema. Every key under `prefix` in a
/// scanned section must be whitelisted, as a whole key or (for `by_leaf`
/// families, which nest sweep keys under arbitrary prefixes) by its last
/// dotted component, and hold a number at or above its floor: 0 unless
/// `floors` says otherwise. Unknown keys are typos the bench diff would
/// silently drop, so they fail. A family scans only the sections whose
/// whitelist is non-empty.
struct Family {
  std::string prefix;
  bool by_leaf = false;
  std::vector<std::string> counters;  ///< allowed in metrics.counters
  std::vector<std::string> gauges;    ///< allowed in metrics.gauges
  std::map<std::string, double> floors;
};

/// The keys of one family in one section that hold numbers, by value.
using Scanned = std::map<std::string, double>;

double value_or(const Scanned& s, const std::string& key, double absent) {
  const auto it = s.find(key);
  return it == s.end() ? absent : it->second;
}

/// The scan every family shares: prefix filter, whitelist, number type,
/// floor. Returns what passed the type check for the family's cross-key
/// invariants.
Scanned scan_family(const Json& metrics, const std::string& section,
                    const Family& f) {
  Scanned got;
  const auto& known = section == "counters" ? f.counters : f.gauges;
  if (known.empty() || !metrics.contains(section) ||
      metrics.at(section).type() != Json::Type::Object) {
    return got;
  }
  for (const auto& [key, v] : metrics.at(section).fields()) {
    if (key.rfind(f.prefix, 0) != 0) continue;
    const std::string name =
        f.by_leaf ? key.substr(key.rfind('.') + 1) : key;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      fail("metrics." + section + " has unknown " + f.prefix + "* " +
           (f.by_leaf ? "leaf" : "key") + " \"" + key + "\"");
      continue;
    }
    if (v.type() != Json::Type::Number) {
      fail("metrics." + section + "." + key + " is not a number");
      continue;
    }
    const double x = v.as_number();
    const auto floor = f.floors.find(key);
    if (floor == f.floors.end() && x < 0.0) fail(key + " is negative");
    if (floor != f.floors.end() && x < floor->second) {
      fail(key + " is below " + Json::number(floor->second).dump());
    }
    got[key] = x;
  }
  return got;
}

/// mem.* (DeviceArena::publish, DESIGN.md section 14): spill requires
/// evictions, and residency stays within capacity.
void check_mem_metrics(const Json& metrics) {
  static const Family mem{
      "mem.",
      false,
      {"mem.admits", "mem.evictions", "mem.spill_bytes", "mem.faults",
       "mem.fault_bytes", "mem.uploads", "mem.upload_bytes", "mem.writebacks",
       "mem.writeback_bytes", "mem.elided_transfers", "mem.elided_bytes",
       "mem.pool_reuse"},
      {"mem.resident_bytes", "mem.resident_highwater", "mem.capacity_bytes",
       "mem.allocations", "mem.pool_highwater_bytes"},
      {}};
  const Scanned c = scan_family(metrics, "counters", mem);
  const Scanned g = scan_family(metrics, "gauges", mem);
  const double resident = value_or(g, "mem.resident_bytes", -1.0);
  const double capacity = value_or(g, "mem.capacity_bytes", -1.0);
  if (resident >= 0.0 && capacity > 0.0 && resident > capacity) {
    fail("mem.resident_bytes exceeds mem.capacity_bytes");
  }
  if (value_or(c, "mem.evictions", -1.0) == 0.0 &&
      value_or(c, "mem.spill_bytes", -1.0) > 0.0) {
    fail("mem.spill_bytes > 0 with mem.evictions == 0");
  }
}

/// net.* (DESIGN.md section 15) pins leaf names, since sweep keys nest
/// under arbitrary prefixes (net.allreduce.p64.rd.messages). Per prefix,
/// the repriced timeline can never exceed the sequentialized bound it
/// replaces, nor can a prefix report messages without bytes (or vice
/// versa) when both exist; `bitwise` is a 0/1 flag.
void check_net_metrics(const Json& metrics) {
  static const std::vector<std::string> leaves = {
      "messages",   "bytes",           "reductions",
      "timeline_s", "sequential_s",    "comm_sequential_s",
      "compute_s",  "bisection_floor_s", "speedup",
      "schedule_speedup", "modeled_s", "bitwise"};
  static const Family net{"net.", true, leaves, leaves, {}};
  for (const char* section : {"counters", "gauges"}) {
    // prefix -> its scanned leaves
    std::map<std::string, Scanned> groups;
    for (const auto& [key, x] : scan_family(metrics, section, net)) {
      const auto dot = key.rfind('.');
      const std::string leaf = key.substr(dot + 1);
      if (leaf == "bitwise" && x != 0.0 && x != 1.0) {
        fail(key + " is not a 0/1 flag");
      }
      groups[key.substr(0, dot)][leaf] = x;
    }
    for (const auto& [prefix, g] : groups) {
      const double timeline = value_or(g, "timeline_s", -1.0);
      const double sequential = value_or(g, "sequential_s", -1.0);
      const double messages = value_or(g, "messages", -1.0);
      const double bytes = value_or(g, "bytes", -1.0);
      if (timeline >= 0.0 && sequential >= 0.0 &&
          timeline > sequential * (1.0 + 1e-9)) {
        fail(prefix + ".timeline_s exceeds " + prefix + ".sequential_s");
      }
      if (messages >= 0.0 && bytes >= 0.0 &&
          (messages > 0.0) != (bytes > 0.0)) {
        fail(prefix + ": messages and bytes disagree about traffic");
      }
    }
  }
}

/// resil.* (run_resilient + the store-integrity counters). A fallback
/// restore can only happen after a generation was refused, so
/// crc_fallbacks can never exceed refused_generations.
void check_resil_metrics(const Json& metrics) {
  static const std::vector<std::string> known = {
      "resil.faults",          "resil.checkpoints",
      "resil.checkpoint_bytes", "resil.steps_replayed",
      "resil.wasted_s",        "resil.checkpoint_s",
      "resil.verifications",   "resil.detections",
      "resil.rollbacks",       "resil.escapes",
      "resil.checkpoint_aborts", "resil.verify_s",
      "resil.refused_generations", "resil.crc_fallbacks"};
  static const Family resil{"resil.", false, known, known, {}};
  for (const char* section : {"counters", "gauges"}) {
    const Scanned got = scan_family(metrics, section, resil);
    const double refused = value_or(got, "resil.refused_generations", -1.0);
    const double fallbacks = value_or(got, "resil.crc_fallbacks", -1.0);
    if (fallbacks >= 0.0 && fallbacks > std::max(refused, 0.0)) {
      fail("resil.crc_fallbacks exceeds resil.refused_generations");
    }
  }
}

/// phoenix.* (DESIGN.md §17): a repair needs a detection, an adoption or
/// retirement needs a repair, and buddy/bootstrap message and byte
/// counters must agree about whether traffic happened.
void check_phoenix_metrics(const Json& metrics) {
  static const std::vector<std::string> known = {
      "phoenix.kills",          "phoenix.detections",
      "phoenix.repairs",        "phoenix.adoptions",
      "phoenix.retirements",    "phoenix.ckpt_commits",
      "phoenix.ckpt_aborts",    "phoenix.restores",
      "phoenix.crc_fallbacks",  "phoenix.replayed_steps",
      "phoenix.buddy_msgs",     "phoenix.buddy_bytes",
      "phoenix.shipped_msgs",   "phoenix.shipped_bytes",
      "phoenix.repair_s",       "phoenix.lost_work_s"};
  static const Family phoenix{"phoenix.", false, known, known, {}};
  for (const char* section : {"counters", "gauges"}) {
    const Scanned got = scan_family(metrics, section, phoenix);
    auto val = [&got](const std::string& k) { return value_or(got, k, -1.0); };
    const double repairs = val("phoenix.repairs");
    const double detections = val("phoenix.detections");
    if (repairs > 0.0 && detections == 0.0) {
      fail("phoenix.repairs > 0 with phoenix.detections == 0");
    }
    const double changes = std::max(val("phoenix.adoptions"), 0.0) +
                           std::max(val("phoenix.retirements"), 0.0);
    if (changes > 0.0 && repairs == 0.0) {
      fail("phoenix membership changed with phoenix.repairs == 0");
    }
    for (const std::string pair : {"buddy", "shipped"}) {
      const double msgs = val("phoenix." + pair + "_msgs");
      const double bytes = val("phoenix." + pair + "_bytes");
      if (msgs >= 0.0 && bytes >= 0.0 && (msgs > 0.0) != (bytes > 0.0)) {
        fail("phoenix." + pair +
             " message and byte counters disagree about traffic");
      }
    }
  }
}

/// One five-way blame entry (a per-rank row or the fleet mean): the five
/// pct values must exist and, when the entry has any time, sum to 100.
void check_blame_entry(const Json& b, const std::string& where) {
  if (b.type() != Json::Type::Object) return fail(where + " is not an object");
  check_number(b, "busy_s");
  if (!b.contains("dominant") ||
      b.at("dominant").type() != Json::Type::String) {
    fail(where + " missing dominant");
  }
  if (!b.contains("pct") || b.at("pct").type() != Json::Type::Object) {
    return fail(where + " missing pct object");
  }
  const Json& pct = b.at("pct");
  double sum = 0.0;
  bool have_all = true;
  for (const char* key :
       {"compute", "memory", "launch_transfer", "comm_wait", "imbalance"}) {
    if (!pct.contains(key) || pct.at(key).type() != Json::Type::Number) {
      fail(where + ".pct missing " + key);
      have_all = false;
      continue;
    }
    sum += pct.at(key).as_number();
  }
  if (have_all && sum > 0.0 && std::fabs(sum - 100.0) > 1e-6) {
    fail(where + ".pct sums to " + std::to_string(sum) + ", not 100");
  }
}

/// coe-xray-v1 (XRAY_*.json): the merged cluster-wide report. Enforces the
/// invariants the xray analysis is built on: every blame split sums to
/// 100%, the imbalance ratio is a max/mean (>= 1 whenever defined), the
/// straggler rank indexes a real rank, the critical path covers at most
/// the makespan, and its steps run earliest-first with abutting slices.
void check_xray(const Json& root) {
  if (!root.contains("name") ||
      root.at("name").type() != Json::Type::String) {
    fail("missing string \"name\"");
  }
  check_number(root, "ranks");
  check_number(root, "makespan_s");
  check_number(root, "timeline_s");
  check_number(root, "messages");
  check_number(root, "matched");
  check_number(root, "unmatched_sends");
  check_number(root, "critical_s");
  check_number(root, "critical_steps");
  check_number(root, "coverage");
  if (!root.contains("well_formed") ||
      root.at("well_formed").type() != Json::Type::Bool) {
    fail("missing boolean well_formed");
  }
  if (!root.contains("diagnostics") ||
      root.at("diagnostics").type() != Json::Type::Array) {
    fail("missing diagnostics array");
  }
  if (root.contains("coverage") &&
      root.at("coverage").type() == Json::Type::Number &&
      root.at("coverage").as_number() > 1.0 + 1e-6) {
    fail("coverage exceeds 1");
  }

  const double ranks =
      root.contains("ranks") && root.at("ranks").type() == Json::Type::Number
          ? root.at("ranks").as_number()
          : 0.0;
  if (!root.contains("imbalance") ||
      root.at("imbalance").type() != Json::Type::Object) {
    fail("missing imbalance object");
  } else {
    const Json& im = root.at("imbalance");
    check_number(im, "mean_busy_s");
    check_number(im, "max_busy_s");
    if (!im.contains("ratio") ||
        im.at("ratio").type() != Json::Type::Number) {
      fail("imbalance.ratio missing");
    } else if (im.at("ratio").as_number() < 1.0 - 1e-9) {
      fail("imbalance.ratio below 1");
    }
    if (!im.contains("straggler_rank") ||
        im.at("straggler_rank").type() != Json::Type::Number) {
      fail("imbalance.straggler_rank missing");
    } else {
      const double r = im.at("straggler_rank").as_number();
      if (r < -1.0 || r >= ranks) {
        fail("imbalance.straggler_rank out of range");
      }
    }
  }

  if (!root.contains("blame") ||
      root.at("blame").type() != Json::Type::Array) {
    fail("missing blame array");
  } else {
    const auto& blame = root.at("blame").items();
    if (static_cast<double>(blame.size()) != ranks) {
      fail("blame array size != ranks");
    }
    for (std::size_t i = 0; i < blame.size(); ++i) {
      check_blame_entry(blame[i], "blame[" + std::to_string(i) + "]");
    }
  }
  if (!root.contains("fleet_blame")) {
    fail("missing fleet_blame");
  } else {
    check_blame_entry(root.at("fleet_blame"), "fleet_blame");
  }

  if (!root.contains("critical_edge_seconds") ||
      root.at("critical_edge_seconds").type() != Json::Type::Object) {
    fail("missing critical_edge_seconds object");
  }
  if (!root.contains("critical_path") ||
      root.at("critical_path").type() != Json::Type::Array) {
    fail("missing critical_path array");
  } else {
    const auto& steps = root.at("critical_path").items();
    double prev_end = 0.0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const Json& s = steps[i];
      const std::string where = "critical_path[" + std::to_string(i) + "]";
      if (s.type() != Json::Type::Object || !s.contains("start_s") ||
          !s.contains("end_s") || !s.contains("rank") ||
          !s.contains("via") || !s.contains("kind")) {
        fail(where + " malformed");
        continue;
      }
      const double lo = s.at("start_s").as_number();
      const double hi = s.at("end_s").as_number();
      if (hi < lo - 1e-12) fail(where + " ends before it starts");
      // Earliest-first and gap-free: each step picks up exactly where the
      // previous one left off (that is what makes the lengths sum to the
      // makespan).
      if (std::fabs(lo - prev_end) > 1e-9) {
        fail(where + " does not abut the previous step");
      }
      prev_end = hi;
      const double r = s.at("rank").as_number();
      if (r < 0.0 || r >= ranks) fail(where + " rank out of range");
    }
  }

  if (!root.contains("stragglers") ||
      root.at("stragglers").type() != Json::Type::Array) {
    fail("missing stragglers array");
  }
  if (!root.contains("phases") ||
      root.at("phases").type() != Json::Type::Array) {
    fail("missing phases array");
  } else {
    const auto& phases = root.at("phases").items();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const Json& p = phases[i];
      const std::string where = "phases[" + std::to_string(i) + "]";
      if (p.type() != Json::Type::Object || !p.contains("name")) {
        fail(where + " malformed");
        continue;
      }
      check_number(p, "mean_s");
      check_number(p, "max_s");
      if (p.contains("ratio") &&
          p.at("ratio").type() == Json::Type::Number &&
          p.at("ratio").as_number() < 1.0 - 1e-9) {
        fail(where + ".ratio below 1");
      }
    }
  }
}

/// xray.* (xray::publish): gauges only. straggler_rank may be -1 (no
/// compute anywhere); the blame percentages must sum to 100 when all five
/// are present, and coverage/ratio/well_formed obey the same bounds as the
/// document.
void check_xray_metrics(const Json& metrics) {
  static const Family xray{
      "xray.",
      false,
      {},
      {"xray.ranks", "xray.well_formed", "xray.messages", "xray.matched",
       "xray.unmatched_sends", "xray.makespan_s", "xray.timeline_s",
       "xray.critical_s", "xray.coverage", "xray.imbalance_ratio",
       "xray.straggler_rank", "xray.straggler_share",
       "xray.blame.compute_pct", "xray.blame.memory_pct",
       "xray.blame.launch_transfer_pct", "xray.blame.comm_wait_pct",
       "xray.blame.imbalance_pct"},
      {{"xray.straggler_rank", -1.0}}};
  const Scanned got = scan_family(metrics, "gauges", xray);
  if (value_or(got, "xray.coverage", 0.0) > 1.0 + 1e-6) {
    fail("xray.coverage exceeds 1");
  }
  if (value_or(got, "xray.imbalance_ratio", 1.0) < 1.0 - 1e-9) {
    fail("xray.imbalance_ratio below 1");
  }
  const double wf = value_or(got, "xray.well_formed", 0.0);
  if (wf != 0.0 && wf != 1.0) fail("xray.well_formed is not a 0/1 flag");
  double blame_sum = 0.0;
  int blame_keys = 0;
  for (const auto& [key, x] : got) {
    if (key.rfind("xray.blame.", 0) == 0) {
      blame_sum += x;
      ++blame_keys;
    }
  }
  if (blame_keys == 5 && blame_sum > 0.0 &&
      std::fabs(blame_sum - 100.0) > 1e-6) {
    fail("xray.blame.* percentages sum to " + std::to_string(blame_sum) +
         ", not 100");
  }
}

void check_machine(const Json& m, std::size_t i) {
  const std::string where = "machines[" + std::to_string(i) + "]";
  if (m.type() != Json::Type::Object) return fail(where + " is not an object");
  if (!m.contains("name") || m.at("name").type() != Json::Type::String ||
      m.at("name").as_string().empty()) {
    fail(where + " has no name");
  }
  check_number(m, "sim_seconds");
  if (!m.contains("counters")) return fail(where + " missing counters");
  const Json& c = m.at("counters");
  if (c.type() == Json::Type::Null) return;
  if (c.type() != Json::Type::Object) {
    return fail(where + ".counters is neither null nor an object");
  }
  for (const char* key : {"flops", "bytes", "launches", "transfers",
                          "h2d_bytes", "d2h_bytes"}) {
    if (!c.contains(key)) fail(where + ".counters missing " + key);
  }
}

/// Validates an already-parsed Chrome trace document (TRACE_*.json).
/// `where` labels errors. Checks the event array plus the otherData
/// metadata write_chrome_trace stamps (dropped count, machine name).
void check_trace_doc(const Json& t, const std::string& where) {
  if (!t.contains("traceEvents") ||
      t.at("traceEvents").type() != Json::Type::Array) {
    return fail(where + " has no traceEvents array");
  }
  for (const Json& e : t.at("traceEvents").items()) {
    if (e.type() != Json::Type::Object || !e.contains("ts") ||
        !e.contains("name")) {
      return fail(where + " has a malformed event");
    }
    const std::string ph = e.contains("ph") ? e.at("ph").as_string() : "X";
    if (ph == "X" && !e.contains("dur")) {
      return fail(where + " has a complete event without dur");
    }
  }
  if (!t.contains("otherData") ||
      t.at("otherData").type() != Json::Type::Object) {
    return fail(where + " missing otherData metadata");
  }
  const Json& meta = t.at("otherData");
  if (!meta.contains("dropped_events") ||
      meta.at("dropped_events").type() != Json::Type::Number) {
    fail(where + " otherData missing dropped_events");
  }
  if (!meta.contains("machine") ||
      meta.at("machine").type() != Json::Type::String) {
    fail(where + " otherData missing machine");
  }
  if (!meta.contains("launch_overhead_s")) {
    fail(where + " otherData missing launch_overhead_s");
  }
}

void check_trace_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return fail("trace file " + path + " not readable");
  std::ostringstream ss;
  ss << f.rdbuf();
  Json t;
  try {
    t = Json::parse(ss.str());
  } catch (const std::exception& e) {
    return fail("trace file " + path + ": " + e.what());
  }
  check_trace_doc(t, "trace file " + path);
}

/// coe-prof-v1 (PROF_*.json): the critical-path attribution document.
/// Beyond type checks this enforces the two invariants the report relies
/// on: each phase's five-way percentage breakdown sums to 100 (when the
/// phase has any time at all) and coverage = critical_s / window_s.
void check_prof(const Json& root) {
  for (const char* key : {"name", "machine"}) {
    if (!root.contains(key) ||
        root.at(key).type() != Json::Type::String) {
      fail(std::string("missing string \"") + key + "\"");
    }
  }
  check_number(root, "launch_overhead_s");
  check_number(root, "dropped_events");
  check_number(root, "events");
  check_number(root, "window_s");
  check_number(root, "busy_s");
  check_number(root, "critical_s");
  check_number(root, "coverage");
  check_number(root, "overlap_efficiency");
  check_number(root, "critical_steps");
  if (!root.contains("critical_edge_seconds") ||
      root.at("critical_edge_seconds").type() != Json::Type::Object) {
    fail("missing critical_edge_seconds object");
  }
  if (root.contains("window_s") && root.contains("critical_s") &&
      root.contains("coverage") &&
      root.at("window_s").type() == Json::Type::Number) {
    const double w = root.at("window_s").as_number();
    if (w > 0.0) {
      const double want = root.at("critical_s").as_number() / w;
      if (std::fabs(root.at("coverage").as_number() - want) > 1e-9) {
        fail("coverage != critical_s / window_s");
      }
    }
  }

  if (!root.contains("streams") ||
      root.at("streams").type() != Json::Type::Array) {
    fail("missing streams array");
  } else {
    for (const Json& s : root.at("streams").items()) {
      if (s.type() != Json::Type::Object || !s.contains("stream") ||
          !s.contains("busy_s") || !s.contains("utilization")) {
        fail("malformed stream entry");
      }
    }
  }

  if (!root.contains("phases") ||
      root.at("phases").type() != Json::Type::Array) {
    return fail("missing phases array");
  }
  const auto& phases = root.at("phases").items();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Json& p = phases[i];
    const std::string where = "phases[" + std::to_string(i) + "]";
    if (p.type() != Json::Type::Object || !p.contains("name")) {
      fail(where + " malformed");
      continue;
    }
    for (const char* key :
         {"busy_s", "critical_s", "stall_s", "compute_s", "memory_s",
          "launch_s", "transfer_s"}) {
      check_number(p, key);
    }
    if (!p.contains("bound") ||
        p.at("bound").type() != Json::Type::String) {
      fail(where + " missing bound");
    }
    if (!p.contains("pct") || p.at("pct").type() != Json::Type::Object) {
      fail(where + " missing pct object");
      continue;
    }
    const Json& pct = p.at("pct");
    double sum = 0.0;
    bool have_all = true;
    for (const char* key : {"compute", "memory", "launch", "transfer",
                            "dependency_stall"}) {
      if (!pct.contains(key) ||
          pct.at(key).type() != Json::Type::Number) {
        fail(where + ".pct missing " + key);
        have_all = false;
        continue;
      }
      sum += pct.at(key).as_number();
    }
    const double total = (p.contains("busy_s") && p.contains("stall_s"))
                             ? p.at("busy_s").as_number() +
                                   p.at("stall_s").as_number()
                             : 0.0;
    if (have_all && total > 0.0 && std::fabs(sum - 100.0) > 1e-6) {
      fail(where + ".pct sums to " + std::to_string(sum) + ", not 100");
    }
  }

  if (!root.contains("spans")) {
    fail("missing spans (array or null)");
  } else if (root.at("spans").type() != Json::Type::Null &&
             root.at("spans").type() != Json::Type::Array) {
    fail("spans is neither null nor an array");
  }
}

bool validate(const std::string& path) {
  g_errors.clear();
  std::ifstream f(path);
  if (!f) {
    std::printf("FAIL %s: unreadable\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  Json root;
  try {
    root = Json::parse(ss.str());
  } catch (const std::exception& e) {
    std::printf("FAIL %s: %s\n", path.c_str(), e.what());
    return false;
  }

  // Dispatch by content: Chrome traces and prof documents get their own
  // schema checks; everything else must be a coe-bench-v1 report.
  if (root.type() == Json::Type::Object && root.contains("traceEvents")) {
    check_trace_doc(root, path);
    if (g_errors.empty()) {
      std::printf("PASS %s (trace)\n", path.c_str());
      return true;
    }
    std::printf("FAIL %s:\n", path.c_str());
    for (const auto& e : g_errors) std::printf("  - %s\n", e.c_str());
    return false;
  }
  if (root.type() == Json::Type::Object && root.contains("schema") &&
      root.at("schema").type() == Json::Type::String &&
      root.at("schema").as_string() == "coe-prof-v1") {
    check_prof(root);
    if (g_errors.empty()) {
      std::printf("PASS %s (prof)\n", path.c_str());
      return true;
    }
    std::printf("FAIL %s:\n", path.c_str());
    for (const auto& e : g_errors) std::printf("  - %s\n", e.c_str());
    return false;
  }
  if (root.type() == Json::Type::Object && root.contains("schema") &&
      root.at("schema").type() == Json::Type::String &&
      root.at("schema").as_string() == "coe-xray-v1") {
    check_xray(root);
    if (g_errors.empty()) {
      std::printf("PASS %s (xray)\n", path.c_str());
      return true;
    }
    std::printf("FAIL %s:\n", path.c_str());
    for (const auto& e : g_errors) std::printf("  - %s\n", e.c_str());
    return false;
  }

  if (!root.contains("schema") ||
      root.at("schema").type() != Json::Type::String ||
      root.at("schema").as_string() != "coe-bench-v1") {
    fail("schema is not \"coe-bench-v1\"");
  }
  if (!root.contains("name") ||
      root.at("name").type() != Json::Type::String ||
      root.at("name").as_string().empty()) {
    fail("missing bench name");
  }
  check_number(root, "wall_seconds");

  if (!root.contains("machines") ||
      root.at("machines").type() != Json::Type::Array) {
    fail("missing machines array");
  } else {
    const auto& machines = root.at("machines").items();
    for (std::size_t i = 0; i < machines.size(); ++i) {
      check_machine(machines[i], i);
    }
  }

  if (!root.contains("metrics") ||
      root.at("metrics").type() != Json::Type::Object) {
    fail("missing metrics object");
  } else {
    const Json& metrics = root.at("metrics");
    check_metrics_section(metrics, "counters");
    check_metrics_section(metrics, "gauges");
    check_metrics_section(metrics, "histograms");
    check_mem_metrics(metrics);
    check_net_metrics(metrics);
    check_resil_metrics(metrics);
    check_phoenix_metrics(metrics);
    check_xray_metrics(metrics);
  }

  if (!root.contains("trace")) {
    fail("missing trace field (null or object)");
  } else if (root.at("trace").type() == Json::Type::Object) {
    const Json& t = root.at("trace");
    check_number(t, "events");
    check_number(t, "dropped");
    if (!t.contains("path") || t.at("path").type() != Json::Type::String) {
      fail("trace.path missing");
    } else {
      check_trace_file(t.at("path").as_string());
    }
  } else if (root.at("trace").type() != Json::Type::Null) {
    fail("trace is neither null nor an object");
  }

  // "profile" (the PROF_ attribution pointer) is optional for backward
  // compatibility with pre-prof baselines, but must be well-formed when
  // present: null, or {path, critical_s, coverage}.
  if (root.contains("profile") &&
      root.at("profile").type() != Json::Type::Null) {
    if (root.at("profile").type() != Json::Type::Object) {
      fail("profile is neither null nor an object");
    } else {
      const Json& pr = root.at("profile");
      check_number(pr, "critical_s");
      check_number(pr, "coverage");
      if (!pr.contains("path") ||
          pr.at("path").type() != Json::Type::String) {
        fail("profile.path missing");
      }
    }
  }

  if (g_errors.empty()) {
    std::printf("PASS %s\n", path.c_str());
    return true;
  }
  std::printf("FAIL %s:\n", path.c_str());
  for (const auto& e : g_errors) std::printf("  - %s\n", e.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s BENCH_*.json [TRACE_*.json PROF_*.json ...]\n", argv[0]);
    return 2;
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) ok = validate(argv[i]) && ok;
  return ok ? 0 : 1;
}
