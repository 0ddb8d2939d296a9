#include "guard/detector.hpp"

#include <bit>
#include <cmath>

#include "prof/span.hpp"

namespace coe::guard {

bool Detector::check(core::ExecContext& ctx) {
  prof::Scope span(profiler_, &ctx, "guard/" + name_);
  const double before = ctx.simulated_time();
  const bool ok = do_check(ctx);
  const double spent = ctx.simulated_time() - before;
  ++stats_.checks;
  stats_.check_s += spent;
  if (!ok) ++stats_.trips;
  if (metrics_) {
    metrics_->add("guard.checks");
    metrics_->add("guard.check_s", spent);
    if (!ok) {
      metrics_->add("guard.trips");
      metrics_->add("guard." + name_ + ".trips");
    }
  }
  return ok;
}

void Detector::arm(core::ExecContext& ctx) {
  prof::Scope span(profiler_, &ctx, "guard/" + name_);
  do_arm(ctx);
  ++stats_.arms;
}

// --- ChecksumDetector ------------------------------------------------------

void ChecksumDetector::add_target(std::string name,
                                  std::span<const double> data) {
  targets_.push_back(Target{std::move(name), data, fingerprint(data)});
}

std::uint64_t ChecksumDetector::fingerprint(std::span<const double> data) {
  // Position-salted splitmix64 finalizer, summed mod 2^64. Each element's
  // contribution is a bijection of (bits, index), so any corruption
  // confined to one element always changes the sum; independent
  // multi-element corruptions cancel only with probability 2^-64.
  std::uint64_t sum = 0;
  std::uint64_t salt = 0x9e3779b97f4a7c15ull;
  for (const double& v : data) {
    std::uint64_t z = std::bit_cast<std::uint64_t>(v) + salt;
    salt += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    sum += z ^ (z >> 31);
  }
  return sum;
}

void ChecksumDetector::price(core::ExecContext& ctx) const {
  // One streaming read of every guarded byte plus a few ALU ops per
  // element — the scrub is memory-bound, like the kernels it guards.
  double n = 0.0;
  for (const auto& t : targets_) n += static_cast<double>(t.data.size());
  ctx.record_kernel({6.0 * n, 8.0 * n});
}

bool ChecksumDetector::do_check(core::ExecContext& ctx) {
  price(ctx);
  bool ok = true;
  for (const auto& t : targets_) {
    if (fingerprint(t.data) != t.ref) ok = false;
  }
  return ok;
}

void ChecksumDetector::do_arm(core::ExecContext& ctx) {
  price(ctx);
  for (auto& t : targets_) t.ref = fingerprint(t.data);
}

// --- BoundDetector ---------------------------------------------------------

bool BoundDetector::do_check(core::ExecContext& ctx) {
  const double v = value_(ctx);
  return std::isfinite(v) && v >= lo_ && v <= hi_;
}

// --- DriftDetector ---------------------------------------------------------

bool DriftDetector::do_check(core::ExecContext& ctx) {
  const double v = value_(ctx);
  if (!std::isfinite(v)) return false;
  if (!armed_) return true;
  return std::abs(v - ref_) <= rel_tol_ * (std::abs(ref_) + abs_floor_);
}

void DriftDetector::do_arm(core::ExecContext& ctx) {
  ref_ = value_(ctx);
  armed_ = true;
}

// --- RangeDetector ---------------------------------------------------------

bool RangeDetector::do_check(core::ExecContext& ctx) {
  if (data_.size() <= offset_) return true;
  const std::size_t n = (data_.size() - offset_ - 1) / stride_ + 1;
  // NaN fails `x >= lo`, so the comparison form doubles as a finiteness
  // check for everything except +/-Inf, which the explicit test catches.
  const double worst = ctx.reduce_max(
      n, {2.0, 8.0 * static_cast<double>(stride_)}, [&](std::size_t i) {
        const double x = data_[offset_ + i * stride_];
        const bool bad = !(x >= lo_ && x <= hi_) || !std::isfinite(x);
        return bad ? 1.0 : 0.0;
      });
  return worst < 0.5;
}

// --- DetectorSet -----------------------------------------------------------

Detector& DetectorSet::add(std::unique_ptr<Detector> d) {
  d->set_sinks(metrics_, profiler_);
  detectors_.push_back(std::move(d));
  return *detectors_.back();
}

bool DetectorSet::check_all(core::ExecContext& ctx) {
  bool ok = true;
  for (auto& d : detectors_) {
    if (!d->check(ctx)) ok = false;
  }
  return ok;
}

void DetectorSet::arm_all(core::ExecContext& ctx) {
  for (auto& d : detectors_) d->arm(ctx);
}

std::size_t DetectorSet::checks() const {
  std::size_t n = 0;
  for (const auto& d : detectors_) n += d->stats().checks;
  return n;
}

std::size_t DetectorSet::trips() const {
  std::size_t n = 0;
  for (const auto& d : detectors_) n += d->stats().trips;
  return n;
}

void DetectorSet::set_sinks(obs::MetricsRegistry* metrics,
                            prof::Profiler* profiler) {
  metrics_ = metrics;
  profiler_ = profiler;
  for (auto& d : detectors_) d->set_sinks(metrics, profiler);
}

}  // namespace coe::guard
