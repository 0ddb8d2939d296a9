#include "md/replicated.hpp"

#include <mutex>
#include <span>

#include "core/exec.hpp"
#include "md/replica.hpp"

namespace coe::md {

ReplicatedResult replicated_md_run(int ranks, const ReplicatedConfig& cfg) {
  ReplicatedResult result;
  result.reductions_per_step = cfg.aggregate ? 1 : 5;
  std::mutex mtx;

  result.traffic = mpi::run(ranks, [&](mpi::Communicator& comm) {
    core::ExecContext ctx;
    MdReplica rep(cfg, comm.rank(), ranks);
    const std::size_t n = rep.n();

    net::NetStats stats;
    net::RankLogger logger(cfg.log, comm.rank());
    double logged_sim = 0.0;
    // Flush the ctx simulated-time delta accrued since the last comm
    // action into the log, so the replay sees compute between reductions.
    auto log_compute = [&] {
      const double s = ctx.simulated_time();
      logger.compute(s - logged_sim);
      logged_sim = s;
    };

    // Partial forces over this rank's row slice, then the global sum:
    // either one (3n+2)-wide collective carrying forces + energy + virial,
    // or the five-round separate form.
    auto forces = [&] {
      rep.partial_forces(ctx);
      log_compute();
      const std::span<double> agg = rep.agg();
      if (cfg.aggregate) {
        net::allreduce_sum(comm, agg, cfg.algo, &stats, logger);
      } else {
        for (std::size_t c = 0; c < 3; ++c) {
          net::allreduce_sum(comm, agg.subspan(c * n, n), cfg.algo, &stats,
                             logger);
        }
        for (std::size_t i = 3 * n; i < 3 * n + 2; ++i) {
          agg[i] = net::allreduce_sum(comm, agg[i], cfg.algo, &stats, logger);
        }
      }
      rep.adopt_forces();
    };

    forces();
    for (int s = 0; s < cfg.steps; ++s) {
      rep.half_kick_and_drift(ctx);
      forces();
      rep.half_kick(ctx);
    }

    log_compute();  // tail: the final half-kick after the last reduction

    std::lock_guard<std::mutex> lk(mtx);
    result.net.messages += stats.messages;
    result.net.bytes += stats.bytes;
    result.net.reductions += stats.reductions;
    if (comm.rank() == 0) {
      result.n = n;
      result.potential = rep.energy();
      result.virial = rep.virial();
      result.kinetic = rep.kinetic();
      result.temperature = rep.temperature();
    }
  });
  if (cfg.log != nullptr && cfg.cluster != nullptr) {
    result.modeled = net::reprice(*cfg.log, *cfg.cluster, ranks);
  }
  return result;
}

}  // namespace coe::md
