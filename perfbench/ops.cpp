// Op driver of the repository benchmark. perfbench/run.py builds it, passes
// the inputs it generated from the seed, and turns the JSON-lines records
// printed here into the benchmark's metrics.
//
//   perfbench_ops --workload W --seconds S --trace 0|1 [--spans PATH]
//                 --in key=value ...
//
// Order of one run: host calibration; three set-ups (state + warm-up ops),
// each timed; the timed phase (a closed loop of ops, one caller; in traced
// mode untraced and traced ops alternate); the peak RSS; reference checks;
// in traced mode the layer probes; host calibration again. Checks and
// references are never inside an op's timing or a setup's.

#include <functional>
#include <map>

#include "harness.hpp"

namespace perfbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();
constexpr int kSetups = 3;  // setup_s is their median
volatile double g_sink = 0.0;

/// A fixed compute-bound kernel from the benchmark's own code: multiply-add
/// sweeps over a 512 KiB array that stays in cache. Its time tracks host
/// speed (clock rate, contention for the core), not the library's code.
double calibrate() {
  std::vector<double> a(1 << 16, 1.0);
  std::vector<double> t;
  for (int r = 0; r < 9; ++r) {
    const double t0 = now_s();
    for (int sweep = 0; sweep < 1000; ++sweep) {
      for (double& x : a) x = x * 0.999999 + 1e-6;
    }
    sink(a[static_cast<std::size_t>(r)]);
    t.push_back(now_s() - t0);
  }
  return median(t);
}

struct OpRecord {
  std::string phase;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  OpCheck check;
};

struct Args {
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  Inputs inputs;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else if (k == "--in") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) throw std::runtime_error("bad --in " + v);
      a.inputs.set(v.substr(0, eq), std::stod(v.substr(eq + 1)));
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
  return a;
}

class Driver {
 public:
  Driver(Workload& w, SpanLog& spans) : w_(&w), spans_(&spans) {}

  /// One setup: state + warm-up ops; returns its wall minus check time.
  double setup() {
    untimed_ = 0.0;
    const double t0 = now_s();
    w_->setup();
    for (int k = 0; k < w_->warmup_ops(); ++k) op("warmup", false);
    return now_s() - t0 - untimed_;
  }

  /// Closed loop: ops back to back until `seconds` of op time have run.
  /// With `traced`, each untraced op is followed by a traced one, so host
  /// drift over the run cancels out of their ratio (bench.trace_overhead).
  void phase(double seconds, bool traced) {
    const double start = now_s();
    double busy = 0.0;
    do {
      busy += op("timed", false);
      if (traced) busy += op("traced", true);
    } while (busy < seconds && now_s() - start < 3.0 * seconds);
  }

  std::vector<OpRecord>& ops() { return ops_; }

 private:
  double op(const std::string& phase, bool traced) {
    const std::size_t index = ops_.size();
    double u0 = now_s();
    w_->prepare();
    untimed_ += now_s() - u0;

    OpRecord rec;
    rec.phase = phase;
    std::string error;
    const double c0 = cpu_s();
    const double t0 = now_s();
    {
      SpanLog* spans = traced ? spans_ : nullptr;
      ScopedSpan span(spans, "op", static_cast<long>(index));
      try {
        w_->run(traced, spans, static_cast<long>(index));
      } catch (const std::exception& e) {
        error = e.what();
        if (error.empty()) error = "exception";
      }
    }
    rec.wall_s = now_s() - t0;
    rec.cpu_s = cpu_s() - c0;

    u0 = now_s();
    if (error.empty()) {
      rec.check = w_->check(index);
    } else {
      rec.check.fail("threw: " + error);
    }
    untimed_ += now_s() - u0;
    ops_.push_back(std::move(rec));
    return ops_.back().wall_s;
  }

  Workload* w_;
  SpanLog* spans_;
  std::vector<OpRecord> ops_;
  double untimed_ = 0.0;
};

int run(const Args& a) {
  const std::map<std::string,
                 std::function<std::unique_ptr<Workload>(const Inputs&)>>
      factories = {{"fem_table4", make_fem_table4},
                   {"fem_fig8", make_fem_fig8},
                   {"amr_cleverleaf", make_amr_cleverleaf},
                   {"ranks_wave_md", make_ranks_wave_md}};
  auto f = factories.find(a.workload);
  if (f == factories.end()) {
    throw std::runtime_error("unknown workload " + a.workload);
  }
  auto w = f->second(a.inputs);

  const double calib_start = calibrate();
  SpanLog spans;
  Driver d(*w, spans);
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) setups.push_back(d.setup());

  d.phase(a.seconds, a.trace);
  const double rss = peak_rss_mb();

  for (const auto& [index, why] : w->verify_all()) {
    d.ops().at(index).check.fail(why);
  }

  Metrics layers;
  if (a.trace) {
    std::vector<double> walls;
    for (const auto& r : d.ops()) {
      if (r.phase == "traced") walls.push_back(r.wall_s);
    }
    double mean = 0.0;
    for (double x : walls) mean += x / static_cast<double>(walls.size());
    layers = w->layers(spans, mean);
  }
  const double calib_end = calibrate();

  Rec("calib").num("start_s", calib_start).num("end_s", calib_end).emit();
  for (double s : setups) Rec("setup").num("wall_s", s).emit();
  for (const auto& r : d.ops()) {
    Rec rec("op");
    rec.str("phase", r.phase)
        .num("wall_s", r.wall_s)
        .num("cpu_s", r.cpu_s)
        .flag("ok", r.check.ok)
        .str("why", r.check.why);
    if (r.check.sim_s >= 0.0) rec.num("sim_s", r.check.sim_s);
    if (!r.check.ratios.empty()) rec.nums("ratios", r.check.ratios);
    rec.emit();
  }
  Rec("rss").num("peak_mb", rss).emit();
  for (const auto& [name, value] : layers) {
    Rec("layer").str("name", name).num("value", value).emit();
  }
  if (!a.spans_path.empty() && !spans.write(a.spans_path)) {
    throw std::runtime_error("cannot write " + a.spans_path);
  }
  return 0;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

void sink(double v) { g_sink = v; }

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"t0\":%.9f,\"t1\":%.9f,"
                 "\"parent\":%ld,\"op\":%ld}%s\n",
                 i, s.name.c_str(), s.t0, s.t1, s.parent, s.op,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_ops: %s\n", e.what());
    return 2;
  }
}
