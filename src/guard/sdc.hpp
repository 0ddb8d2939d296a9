#pragma once
// Silent-data-corruption injection. Fail-stop faults (resil::FaultInjector)
// kill a component loudly; SDC flips bits in live data and says nothing —
// the failure mode that checkpoint/restart alone cannot handle, because a
// corrupted state is happily checkpointed and faithfully restored. The
// injector here drives the same seeded exponential clock as the fail-stop
// model, but its "fault" is a bit flip in a registered buffer payload:
// single-bit or burst, host- or device-resident targets, any bit class or a
// restricted range (high exponent bits produce loud, detectable damage; low
// mantissa bits produce the quiet damage that measures a detector's escape
// rate). Every corruption is logged (time, target, element, bits before and
// after) so tests can assert exact containment accounting.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "resil/fault.hpp"

namespace coe::guard {

/// Residency filter for corruption targets.
enum class SdcTarget { Any, Host, Device };

struct SdcConfig {
  /// Corruptions per simulated second (exponential inter-arrivals on the
  /// seeded clock). 0 disables the clock.
  double rate = 0.0;
  /// Deterministic mode for tests and ablations: corrupt on every k-th
  /// poll() regardless of simulated time. Overrides `rate` when nonzero.
  std::size_t every_polls = 0;
  std::uint64_t seed = 1;
  /// Eligible bit positions within the 64-bit payload word, inclusive.
  /// [62, 62] flips the top exponent bit (loud); [0, 20] stays in the low
  /// mantissa (quiet); the default covers the full word.
  int bit_lo = 0;
  int bit_hi = 63;
  /// Maximum adjacent bits flipped per corruption; 1 means single-bit
  /// upsets only, larger values model multi-bit bursts within one word.
  int burst_max = 1;
  SdcTarget target = SdcTarget::Any;
  std::size_t max_corruptions = static_cast<std::size_t>(-1);
};

/// One logged bit-flip event.
struct Corruption {
  double time = 0.0;        ///< simulated time of the poll that injected it
  std::string target;       ///< registered buffer name
  std::size_t index = 0;    ///< element within the buffer
  int bit = 0;              ///< lowest flipped bit position
  int bits_flipped = 1;     ///< burst width actually applied
  std::uint64_t old_bits = 0;
  std::uint64_t new_bits = 0;
};

/// Seeded SDC injector over named live buffers. Register the state arrays a
/// driver exposes (WaveSolver::sdc_targets() etc.), then poll() the clock
/// wherever the run already consults its fault process — typically inside
/// the resil verify hook, so detection runs against freshly corrupted
/// state. At most one corruption is applied per poll (corruptions land at
/// poll granularity, like fail-stop faults land at step granularity).
class SdcInjector {
 public:
  explicit SdcInjector(SdcConfig cfg);

  bool enabled() const {
    return (cfg_.rate > 0.0 || cfg_.every_polls > 0) && !targets_.empty();
  }

  /// Registers a buffer as corruptible. The span must stay valid (same
  /// storage, same size) for the injector's lifetime.
  void add_target(std::string name, std::span<double> data,
                  bool on_device = true);

  /// Advances the corruption clock to `now`; flips bits in one registered
  /// target if the clock fired. Returns the number of corruptions applied
  /// (0 or 1).
  std::size_t poll(double now);

  /// Unconditionally corrupts one element of `data` (direct-injection path
  /// for unit tests); logged like a polled corruption.
  Corruption corrupt_one(std::span<double> data, const std::string& name,
                         double now = 0.0);

  /// Total corruptions injected so far — the ground truth the containment
  /// accounting in resil::ResilienceReport is measured against.
  std::size_t injected() const { return injected_; }
  std::size_t polls() const { return polls_; }
  const std::vector<Corruption>& log() const { return log_; }

 private:
  struct Target {
    std::string name;
    std::span<double> data;
    bool on_device;
  };

  bool eligible(const Target& t) const {
    return cfg_.target == SdcTarget::Any ||
           (cfg_.target == SdcTarget::Device) == t.on_device;
  }
  Corruption flip(std::span<double> data, const std::string& name,
                  double now);

  SdcConfig cfg_;
  resil::FaultInjector clock_;
  core::Rng rng_;
  std::vector<Target> targets_;
  std::vector<Corruption> log_;
  std::size_t injected_ = 0;
  std::size_t polls_ = 0;
};

}  // namespace coe::guard
