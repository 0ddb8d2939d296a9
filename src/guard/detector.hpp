#pragma once
// Silent-error detectors. A Detector validates some slice of live solver
// state and answers clean/tripped; resil::run_resilient consults a set of
// them through its verify hook before each step consumes the state, so a
// trip triggers rollback-and-recompute instead of propagating garbage.
//
// The protocol for reference-carrying detectors (checksums, drift
// monitors): check() compares the current state against the reference
// captured by the last arm(); the step loop re-arms after every accepted
// step, and the rollback path re-arms after every restore. A check thus
// always asks "did the state change since it was last known-good other
// than by the step itself?" — which, polled between steps, is exactly
// at-rest corruption.
//
// Every check is priced through the machine model (the detection tax is
// real time on the timeline), counted in per-detector stats, published to
// an obs::MetricsRegistry ("guard.checks"/"guard.trips"/"guard.check_s"),
// and wrapped in a prof::Scope ("guard/<name>") so it shows up in the
// bottleneck report next to the kernels it protects.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/exec.hpp"
#include "obs/metrics.hpp"

namespace coe::prof {
class Profiler;
}

namespace coe::guard {

struct DetectorStats {
  std::size_t checks = 0;
  std::size_t trips = 0;
  std::size_t arms = 0;
  double check_s = 0.0;  ///< simulated s spent checking (the detection tax)
};

class Detector {
 public:
  explicit Detector(std::string name) : name_(std::move(name)) {}
  virtual ~Detector() = default;

  const std::string& name() const { return name_; }

  /// Validates the guarded state; true means clean. Counts, prices, and
  /// publishes around the subclass check.
  bool check(core::ExecContext& ctx);

  /// Captures the current state as the new known-good reference. No-op for
  /// stateless detectors (range checks).
  void arm(core::ExecContext& ctx);

  const DetectorStats& stats() const { return stats_; }

  /// Telemetry sinks (not owned; must outlive the detector).
  void set_sinks(obs::MetricsRegistry* metrics, prof::Profiler* profiler) {
    metrics_ = metrics;
    profiler_ = profiler;
  }

 protected:
  virtual bool do_check(core::ExecContext& ctx) = 0;
  virtual void do_arm(core::ExecContext&) {}

 private:
  std::string name_;
  DetectorStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  prof::Profiler* profiler_ = nullptr;
};

/// Exact at-rest corruption scrub: fingerprints the bit patterns of the
/// registered arrays (order-sensitive 64-bit mix, so any single flipped
/// element is detected with certainty, multi-element collisions only at
/// 2^-64 odds). This is the strong detector — it guarantees the bitwise
/// acceptance property — at the cost of a full read of the guarded state
/// per check, priced as one fused streaming pass.
class ChecksumDetector : public Detector {
 public:
  explicit ChecksumDetector(std::string name = "scrub") : Detector(name) {}

  /// The span must stay valid for the detector's lifetime.
  void add_target(std::string name, std::span<const double> data);

 protected:
  bool do_check(core::ExecContext& ctx) override;
  void do_arm(core::ExecContext& ctx) override;

 private:
  struct Target {
    std::string name;
    std::span<const double> data;
    std::uint64_t ref = 0;
  };
  static std::uint64_t fingerprint(std::span<const double> data);
  void price(core::ExecContext& ctx) const;
  std::vector<Target> targets_;
};

/// Bounds monitor on a scalar functional of the state (the invariant
/// style: stencil CFL/amplitude bounds, reaction gating bounds). Trips
/// when the value leaves [lo, hi] or is not finite. Stateless — arm() is a
/// no-op. Cheap but approximate: corruption that stays inside the bounds
/// escapes (and is counted as such by the driver).
class BoundDetector : public Detector {
 public:
  BoundDetector(std::string name,
                std::function<double(core::ExecContext&)> value, double lo,
                double hi)
      : Detector(std::move(name)), value_(std::move(value)), lo_(lo),
        hi_(hi) {}

 protected:
  bool do_check(core::ExecContext& ctx) override;

 private:
  std::function<double(core::ExecContext&)> value_;
  double lo_, hi_;
};

/// Relative-drift monitor on a scalar functional (MD momentum/energy
/// drift, stencil energy). check() compares against the value captured by
/// the last arm(); armed after every step, it bounds the legitimate
/// per-step change, so a corruption-induced jump trips. NaN/Inf always
/// trips.
class DriftDetector : public Detector {
 public:
  /// Trips when |v - ref| > rel_tol * (|ref| + abs_floor). The floor keeps
  /// near-zero conserved quantities (net momentum) from making every
  /// round-off wiggle a trip.
  DriftDetector(std::string name,
                std::function<double(core::ExecContext&)> value,
                double rel_tol, double abs_floor = 0.0)
      : Detector(std::move(name)), value_(std::move(value)),
        rel_tol_(rel_tol), abs_floor_(abs_floor) {}

 protected:
  bool do_check(core::ExecContext& ctx) override;
  void do_arm(core::ExecContext& ctx) override;

 private:
  std::function<double(core::ExecContext&)> value_;
  double rel_tol_, abs_floor_;
  double ref_ = 0.0;
  bool armed_ = false;
};

/// Elementwise range check over a strided span — the reaction-kernel
/// guard, where per-cell state is interleaved [v, m, h, n] and each
/// component has its own physiological range. Trips on any element outside
/// [lo, hi] or non-finite. Stateless.
class RangeDetector : public Detector {
 public:
  RangeDetector(std::string name, std::span<const double> data, double lo,
                double hi, std::size_t stride = 1, std::size_t offset = 0)
      : Detector(std::move(name)), data_(data), lo_(lo), hi_(hi),
        stride_(stride == 0 ? 1 : stride), offset_(offset) {}

 protected:
  bool do_check(core::ExecContext& ctx) override;

 private:
  std::span<const double> data_;
  double lo_, hi_;
  std::size_t stride_, offset_;
};

/// Owning composite: the set of detectors guarding one run. check_all runs
/// every detector (no short-circuit, so per-detector stats stay
/// comparable) and is shaped to slot straight into
/// resil::ResilienceConfig::verify_hook; arm_all re-arms after an accepted
/// step or a restore.
class DetectorSet {
 public:
  Detector& add(std::unique_ptr<Detector> d);

  template <typename D, typename... Args>
  D& emplace(Args&&... args) {
    auto d = std::make_unique<D>(std::forward<Args>(args)...);
    D& ref = *d;
    add(std::move(d));
    return ref;
  }

  bool check_all(core::ExecContext& ctx);
  void arm_all(core::ExecContext& ctx);

  std::size_t size() const { return detectors_.size(); }
  Detector& operator[](std::size_t i) { return *detectors_[i]; }

  std::size_t checks() const;
  std::size_t trips() const;

  /// Propagated to every current and future member.
  void set_sinks(obs::MetricsRegistry* metrics, prof::Profiler* profiler);

 private:
  std::vector<std::unique_ptr<Detector>> detectors_;
  obs::MetricsRegistry* metrics_ = nullptr;
  prof::Profiler* profiler_ = nullptr;
};

}  // namespace coe::guard
