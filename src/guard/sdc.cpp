#include "guard/sdc.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace coe::guard {

SdcInjector::SdcInjector(SdcConfig cfg)
    : cfg_(cfg),
      // The fail-stop clock machinery is reused verbatim: "MTBF" here is
      // the mean time between corruptions.
      clock_(cfg.rate > 0.0 ? 1.0 / cfg.rate : 0.0, cfg.seed),
      // Decorrelate bit/element choices from the arrival times so changing
      // the rate does not reshuffle which bits get hit.
      rng_(cfg.seed ^ 0x9e3779b97f4a7c15ull) {
  if (cfg_.bit_lo < 0) cfg_.bit_lo = 0;
  if (cfg_.bit_hi > 63) cfg_.bit_hi = 63;
  if (cfg_.bit_hi < cfg_.bit_lo) cfg_.bit_hi = cfg_.bit_lo;
  if (cfg_.burst_max < 1) cfg_.burst_max = 1;
}

void SdcInjector::add_target(std::string name, std::span<double> data,
                             bool on_device) {
  if (data.empty()) return;
  targets_.push_back(Target{std::move(name), data, on_device});
}

Corruption SdcInjector::flip(std::span<double> data, const std::string& name,
                             double now) {
  Corruption c;
  c.time = now;
  c.target = name;
  c.index = static_cast<std::size_t>(
      rng_.uniform_int(static_cast<std::uint64_t>(data.size())));
  const int span = cfg_.bit_hi - cfg_.bit_lo + 1;
  c.bit = cfg_.bit_lo +
          static_cast<int>(rng_.uniform_int(static_cast<std::uint64_t>(span)));
  const int burst =
      1 + static_cast<int>(
              rng_.uniform_int(static_cast<std::uint64_t>(cfg_.burst_max)));
  // The burst stays inside the word and inside the configured bit range.
  c.bits_flipped = std::min({burst, 64 - c.bit, cfg_.bit_hi - c.bit + 1});
  const std::uint64_t mask =
      (c.bits_flipped >= 64 ? ~0ull : ((1ull << c.bits_flipped) - 1ull))
      << c.bit;
  c.old_bits = std::bit_cast<std::uint64_t>(data[c.index]);
  c.new_bits = c.old_bits ^ mask;
  data[c.index] = std::bit_cast<double>(c.new_bits);
  ++injected_;
  log_.push_back(c);
  return c;
}

Corruption SdcInjector::corrupt_one(std::span<double> data,
                                    const std::string& name, double now) {
  return flip(data, name, now);
}

std::size_t SdcInjector::poll(double now) {
  ++polls_;
  if (!enabled() || injected_ >= cfg_.max_corruptions) return 0;
  bool due = false;
  if (cfg_.every_polls > 0) {
    due = polls_ % cfg_.every_polls == 0;
  } else {
    due = clock_.fire(now);
  }
  if (!due) return 0;
  // Pick uniformly among residency-eligible targets.
  std::vector<std::size_t> pool;
  pool.reserve(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (eligible(targets_[i])) pool.push_back(i);
  }
  if (pool.empty()) return 0;
  auto& t = targets_[pool[static_cast<std::size_t>(
      rng_.uniform_int(static_cast<std::uint64_t>(pool.size())))]];
  flip(t.data, t.name, now);
  return 1;
}

}  // namespace coe::guard
