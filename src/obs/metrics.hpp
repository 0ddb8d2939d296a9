#pragma once
// MetricsRegistry — a thread-safe counter/gauge/histogram sink the
// subsystems publish operational telemetry into (mpi message/timeout
// counts, scheduler requeues, resilience faults and checkpoint bytes).
// Registries are plain objects handed to a subsystem via its config
// struct; nothing publishes unless a registry is attached, so the cost
// when unused is a null-pointer test.
//
// Naming convention: dotted lowercase paths scoped by subsystem, e.g.
// "mpi.messages", "sched.requeues", "resil.checkpoint_bytes",
// "guard.checks"/"guard.trips" (plus "guard.<detector>.trips" per
// detector); counters and accumulators that measure time carry a unit
// suffix ("sched.wait_s", "guard.check_s"). See DESIGN.md §10.

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>

namespace coe::obs {

/// Summary statistics of one histogram series. A fixed set of moments
/// rather than buckets: every consumer here wants count/sum/extremes, and
/// the raw series stays reproducible from the trace when needed.
struct HistogramStat {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void observe(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

class MetricsRegistry {
 public:
  /// Adds `delta` to a monotonically accumulating counter.
  void add(const std::string& name, double delta = 1.0);
  /// Sets a gauge to its latest value.
  void set(const std::string& name, double value);
  /// Records one observation into a histogram series.
  void observe(const std::string& name, double value);

  /// Reads (0 / empty stat when the name was never published).
  double counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  HistogramStat histogram(const std::string& name) const;

  /// Snapshots for export.
  std::map<std::string, double> counters() const;

  /// Serializes the whole registry as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,max}}}
  std::string to_json() const;

  void clear();

 private:
  mutable std::mutex mtx_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramStat> histograms_;
};

}  // namespace coe::obs
