#include "stencil/survivable.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "core/exec.hpp"
#include "stencil/slab.hpp"

namespace coe::stencil {

namespace {

constexpr int kChanRight = phoenix::RankContext::kChanApp;     // p -> p+1
constexpr int kChanLeft = phoenix::RankContext::kChanApp + 1;  // p -> p-1

WaveSlab& wave(phoenix::RankContext& rc, int p) {
  return static_cast<WaveSlab&>(rc.part(p));
}

/// The two adjacent x-planes starting at plane `a`, as one message.
std::vector<double> pack(const WaveSlab& w, std::size_t a) {
  const auto at = w.u().begin() + static_cast<long>(a * w.plane());
  return {at, at + static_cast<long>(2 * w.plane())};
}

void unpack(WaveSlab& w, std::size_t a, const std::vector<double>& v) {
  std::copy(v.begin(), v.end(),
            w.u().begin() + static_cast<long>(a * w.plane()));
}

}  // namespace

SurvivableWaveResult survivable_wave_run(
    const SurvivableWaveConfig& cfg,
    const std::function<double(double, double, double)>& u0) {
  if (cfg.workers < 1 ||
      cfg.nx % static_cast<std::size_t>(cfg.workers) != 0) {
    throw std::invalid_argument(
        "survivable_wave_run: nx must divide by workers");
  }
  SurvivableWaveResult result;
  result.field.assign(cfg.nx * cfg.ny * cfg.nz, 0.0);
  std::mutex field_mtx;

  // Step 0 is the Taylor backstep.
  const phoenix::SurvivableConfig pc =
      phoenix::survivable_config(cfg, cfg.steps + 1);

  phoenix::SurvivableHooks hooks;
  hooks.make = [&cfg, &u0](phoenix::RankContext&, int part) {
    return std::make_unique<WaveSlab>(cfg, part, cfg.workers, u0);
  };
  hooks.step = [&cfg](phoenix::RankContext& rc, int step) {
    core::ExecContext& ctx = rc.ctx();
    if (cfg.trace_ranks) ctx.set_phase("stencil");
    for (int p : rc.owned()) wave(rc, p).fill_yz_walls();
    rc.log_compute();
    if (cfg.trace_ranks) ctx.set_phase("halo");
    // Both ghost-deep planes per direction travel as one aggregated
    // message. All sends are posted (eager) before any receive blocks:
    // deadlock-free under any part->rank mapping, including a shrunken
    // world where one rank owns both ends of an exchange (those
    // short-circuit locally).
    for (int p : rc.owned()) {
      const WaveSlab& w = wave(rc, p);
      if (!w.first()) rc.part_send(p, p - 1, kChanLeft, pack(w, 2));
      if (!w.last()) rc.part_send(p, p + 1, kChanRight, pack(w, w.lnx()));
    }
    for (int p : rc.owned()) {
      WaveSlab& w = wave(rc, p);
      if (!w.first()) unpack(w, 0, rc.part_recv(p - 1, p, kChanRight));
      if (!w.last()) {
        unpack(w, w.lnx() + 2, rc.part_recv(p + 1, p, kChanLeft));
      }
    }
    if (cfg.trace_ranks) ctx.set_phase("stencil");
    for (int p : rc.owned()) {
      WaveSlab& w = wave(rc, p);
      w.fill_x_walls();
      // Step 0 is the Taylor backstep; the leapfrog steps follow.
      w.sweep(ctx, 2, w.lnx() + 2,
              step == 0 ? WaveSlab::Update::Taylor
                        : WaveSlab::Update::Leapfrog);
      if (step != 0) w.rotate();
    }
    rc.log_compute();
  };
  hooks.finish = [&result, &field_mtx](phoenix::RankContext& rc) {
    std::lock_guard<std::mutex> lk(field_mtx);
    for (int p : rc.owned()) {
      wave(rc, p).gather(result.field);
      result.dt = wave(rc, p).dt();
    }
  };

  result.report = phoenix::run_survivable(pc, hooks);
  if (cfg.cluster != nullptr && cfg.log != nullptr) {
    result.modeled = net::reprice(*cfg.log, *cfg.cluster, cfg.workers);
  }
  return result;
}

}  // namespace coe::stencil
