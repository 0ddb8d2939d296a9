#include "md/survivable.hpp"

#include <mutex>

#include "core/exec.hpp"
#include "md/replica.hpp"

namespace coe::md {

namespace {

MdReplica& replica(phoenix::RankContext& rc, int p) {
  return static_cast<MdReplica&>(rc.part(p));
}

}  // namespace

SurvivableMdResult survivable_md_run(const SurvivableMdConfig& cfg) {
  SurvivableMdResult result;
  std::mutex mtx;

  // Step 0 computes the initial forces.
  const phoenix::SurvivableConfig pc =
      phoenix::survivable_config(cfg, cfg.steps + 1);

  phoenix::SurvivableHooks hooks;
  hooks.make = [&cfg](phoenix::RankContext&, int p) {
    return std::make_unique<MdReplica>(cfg, p, cfg.workers);
  };
  // One force evaluation: partial row-slice forces on every owned part,
  // one (3n+2)-wide part-tree reduction, result adopted by every replica.
  auto forces = [](phoenix::RankContext& rc) {
    for (int p : rc.owned()) replica(rc, p).partial_forces(rc.ctx());
    rc.log_compute();
    rc.part_allreduce(phoenix::RankContext::kChanApp, [&rc](int p) {
      return replica(rc, p).agg();
    });
    for (int p : rc.owned()) replica(rc, p).adopt_forces();
  };
  hooks.step = [&cfg, forces](phoenix::RankContext& rc, int step) {
    core::ExecContext& ctx = rc.ctx();
    if (cfg.trace_ranks) ctx.set_phase("md");
    if (step == 0) {
      forces(rc);
      return;
    }
    for (int p : rc.owned()) replica(rc, p).half_kick_and_drift(ctx);
    forces(rc);
    for (int p : rc.owned()) replica(rc, p).half_kick(ctx);
    rc.log_compute();
  };
  hooks.finish = [&result, &mtx](phoenix::RankContext& rc) {
    for (int p : rc.owned()) {
      if (p != 0) continue;
      MdReplica& m = replica(rc, p);
      std::lock_guard<std::mutex> lk(mtx);
      result.n = m.n();
      result.potential = m.energy();
      result.virial = m.virial();
      result.kinetic = m.kinetic();
      result.temperature = m.temperature();
    }
  };

  result.report = phoenix::run_survivable(pc, hooks);
  if (cfg.cluster != nullptr && cfg.log != nullptr) {
    result.modeled = net::reprice(*cfg.log, *cfg.cluster, cfg.workers);
  }
  return result;
}

}  // namespace coe::md
