// Offline bottleneck report over bench artifacts (DESIGN.md section 12).
//
//   coe_report [--check-coverage=FRAC] [--json] FILE...
//
// Each FILE is either a TRACE_*.json (Chrome trace written by
// obs::write_chrome_trace), a BENCH_*.json (coe-bench-v1), or an
// XRAY_*.json (coe-xray-v1 merged cluster report). For a bench report the
// referenced trace file is resolved next to it. Traces get the
// prof::analyze critical-path extraction and the text bottleneck report
// (or, with --json, the coe-prof-v1 document); xray reports are rendered
// as the straggler/imbalance summary (with --json, echoed verbatim —
// they already are the document).
//
// --check-coverage=FRAC turns the tool into a CI gate: it exits nonzero
// unless the extracted critical path accounts for at least FRAC of the
// trace window on every input (ISSUE 4 pins CI at 0.995). A dropped-event
// count > 0 also fails the gate, since attribution over a truncated ring
// is not trustworthy. For an xray report the gate instead requires the
// merged view to be well-formed (every send matched, no truncated rank
// logs) with distributed critical-path coverage >= FRAC of the makespan.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "prof/prof.hpp"

namespace {

using coe::obs::Json;

bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

/// Directory part of `path` including the trailing slash ("" if none) so
/// trace paths referenced by a bench report resolve relative to it.
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

struct Options {
  double min_coverage = -1.0;  ///< <0: report only, no gate
  bool json = false;
};

/// Loads `path` as a trace, directly or via a bench report's trace.path.
/// Returns false (with a message) if no trace can be found.
bool load_trace(const std::string& path, coe::obs::TraceBuffer* buf,
                std::string* title) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "coe_report: cannot read %s\n", path.c_str());
    return false;
  }
  Json root;
  try {
    root = Json::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coe_report: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  if (root.contains("traceEvents")) {
    *buf = coe::obs::parse_chrome_trace(text);
    *title = path;
    return true;
  }
  if (root.contains("schema") &&
      root.at("schema").type() == Json::Type::String &&
      root.at("schema").as_string() == "coe-bench-v1") {
    if (!root.contains("trace") ||
        root.at("trace").type() != Json::Type::Object) {
      std::fprintf(stderr, "coe_report: %s has no trace (run with tracing"
                   " enabled)\n", path.c_str());
      return false;
    }
    std::string tpath = root.at("trace").at("path").as_string();
    std::string ttext;
    // The stamped path is relative to where the bench ran; try it as-is,
    // then next to the bench report.
    if (!read_file(tpath, &ttext) &&
        !read_file(dir_of(path) + tpath, &ttext)) {
      std::fprintf(stderr, "coe_report: trace %s (from %s) not readable\n",
                   tpath.c_str(), path.c_str());
      return false;
    }
    *buf = coe::obs::parse_chrome_trace(ttext);
    *title = root.contains("name") ? root.at("name").as_string() : path;
    return true;
  }
  std::fprintf(stderr, "coe_report: %s is neither a Chrome trace nor a"
               " coe-bench-v1 report\n", path.c_str());
  return false;
}

double num_or(const Json& o, const char* key, double fallback) {
  return o.contains(key) && o.at(key).type() == Json::Type::Number
             ? o.at(key).as_number()
             : fallback;
}

/// Renders a coe-xray-v1 merged cluster report (already analyzed by
/// xray::analyze; this just formats the document) and applies the
/// well-formed + coverage gate.
bool report_xray(const std::string& path, const Json& root,
                 const Options& opt) {
  if (opt.json) {
    std::printf("%s\n", root.dump().c_str());
  } else {
    const std::string name =
        root.contains("name") ? root.at("name").as_string() : path;
    const bool wf = root.contains("well_formed") &&
                    root.at("well_formed").type() == Json::Type::Bool &&
                    root.at("well_formed").as_bool();
    std::printf("%s (merged cluster view)\n", name.c_str());
    std::printf("  ranks: %.0f   messages: %.0f matched, %.0f unmatched"
                "   well-formed: %s\n",
                num_or(root, "ranks", 0), num_or(root, "matched", 0),
                num_or(root, "unmatched_sends", 0), wf ? "yes" : "NO");
    std::printf("  makespan: %.6e s   distributed critical path: %.6e s"
                " (%.2f%% coverage, %.0f steps)\n",
                num_or(root, "makespan_s", 0),
                num_or(root, "critical_s", 0),
                100.0 * num_or(root, "coverage", 0),
                num_or(root, "critical_steps", 0));
    if (root.contains("imbalance") &&
        root.at("imbalance").type() == Json::Type::Object) {
      const Json& im = root.at("imbalance");
      std::printf("  imbalance: max/mean busy %.2fx   dominant straggler:"
                  " rank %.0f\n",
                  num_or(im, "ratio", 1.0),
                  num_or(im, "straggler_rank", -1.0));
    }
    if (root.contains("fleet_blame") &&
        root.at("fleet_blame").type() == Json::Type::Object &&
        root.at("fleet_blame").contains("pct")) {
      const Json& pct = root.at("fleet_blame").at("pct");
      std::printf("  fleet blame: compute %.1f%%  memory %.1f%%  launch"
                  " %.1f%%  comm-wait %.1f%%  imbalance %.1f%%\n",
                  num_or(pct, "compute", 0), num_or(pct, "memory", 0),
                  num_or(pct, "launch_transfer", 0),
                  num_or(pct, "comm_wait", 0),
                  num_or(pct, "imbalance", 0));
    }
    if (root.contains("stragglers") &&
        root.at("stragglers").type() == Json::Type::Array) {
      for (const Json& s : root.at("stragglers").items()) {
        std::printf("    rank %4.0f: %.3e s busy  (%.1f%% of fleet)\n",
                    num_or(s, "rank", -1), num_or(s, "busy_s", 0),
                    100.0 * num_or(s, "share", 0));
      }
    }
    if (root.contains("diagnostics") &&
        root.at("diagnostics").type() == Json::Type::Array) {
      for (const Json& d : root.at("diagnostics").items()) {
        std::printf("  DIAGNOSTIC: %s\n", d.as_string().c_str());
      }
    }
  }

  bool ok = true;
  if (opt.min_coverage >= 0.0) {
    const bool wf = root.contains("well_formed") &&
                    root.at("well_formed").type() == Json::Type::Bool &&
                    root.at("well_formed").as_bool();
    const double cov = num_or(root, "coverage", 0.0);
    if (!wf) {
      std::fprintf(stderr, "coe_report: GATE FAIL %s: merged view is not"
                   " well-formed (unmatched or truncated rank logs)\n",
                   path.c_str());
      ok = false;
    }
    if (cov < opt.min_coverage) {
      std::fprintf(stderr, "coe_report: GATE FAIL %s: distributed critical"
                   " path covers %.4f%% of the makespan, need >= %.4f%%\n",
                   path.c_str(), 100.0 * cov, 100.0 * opt.min_coverage);
      ok = false;
    }
    if (ok) {
      std::fprintf(stderr, "coe_report: gate PASS %s (xray coverage"
                   " %.4f%%)\n", path.c_str(), 100.0 * cov);
    }
  }
  return ok;
}

bool report_one(const std::string& path, const Options& opt) {
  // Merged cluster reports are dispatched by schema, everything else by
  // the trace loader.
  {
    std::string text;
    if (read_file(path, &text)) {
      Json root;
      try {
        root = Json::parse(text);
      } catch (const std::exception&) {
        root = Json();  // let load_trace produce the error message
      }
      if (root.type() == Json::Type::Object && root.contains("schema") &&
          root.at("schema").type() == Json::Type::String &&
          root.at("schema").as_string() == "coe-xray-v1") {
        return report_xray(path, root, opt);
      }
    }
  }
  coe::obs::TraceBuffer buf;
  std::string title;
  if (!load_trace(path, &buf, &title)) return false;
  if (buf.empty()) {
    std::fprintf(stderr, "coe_report: %s: trace has no events\n",
                 path.c_str());
    return false;
  }
  const coe::prof::DagProfile prof = coe::prof::analyze(buf);
  if (opt.json) {
    std::printf("%s\n", coe::prof::profile_json(prof, nullptr, title)
                            .dump().c_str());
  } else {
    std::fputs(coe::prof::bottleneck_report(prof, title).c_str(), stdout);
  }
  bool ok = true;
  if (opt.min_coverage >= 0.0) {
    if (prof.dropped > 0) {
      std::fprintf(stderr, "coe_report: GATE FAIL %s: %llu events dropped"
                   " from the ring (attribution incomplete)\n",
                   path.c_str(),
                   static_cast<unsigned long long>(prof.dropped));
      ok = false;
    }
    if (prof.coverage < opt.min_coverage) {
      std::fprintf(stderr, "coe_report: GATE FAIL %s: critical path covers"
                   " %.4f%% of the window, need >= %.4f%%\n",
                   path.c_str(), 100.0 * prof.coverage,
                   100.0 * opt.min_coverage);
      ok = false;
    }
    if (ok) {
      std::fprintf(stderr, "coe_report: gate PASS %s (coverage %.4f%%)\n",
                   path.c_str(), 100.0 * prof.coverage);
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--check-coverage=", 0) == 0) {
      opt.min_coverage = std::atof(arg.c_str() + std::strlen("--check-coverage="));
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "-h" || arg == "--help") {
      std::printf("usage: coe_report [--check-coverage=FRAC] [--json]"
                  " TRACE_or_BENCH.json...\n");
      return 0;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "usage: %s [--check-coverage=FRAC] [--json]"
                 " TRACE_or_BENCH.json...\n", argv[0]);
    return 2;
  }
  bool ok = true;
  for (const auto& f : files) {
    // A malformed artifact (a field of the wrong type, say) fails its own
    // file only; the remaining files are still reported and gated.
    try {
      ok = report_one(f, opt) && ok;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "coe_report: %s: %s\n", f.c_str(), e.what());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
