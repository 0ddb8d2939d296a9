#include "md/replicated.hpp"

#include <mutex>

#include "core/exec.hpp"
#include "md/replica.hpp"

namespace coe::md {

ReplicatedResult replicated_md_run(int ranks, const ReplicatedConfig& cfg) {
  ReplicatedResult result;
  std::mutex mtx;

  result.traffic = mpi::run(ranks, [&](mpi::Communicator& comm) {
    core::ExecContext ctx;
    MdReplica rep(cfg, comm.rank(), ranks);

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

    // Partial forces over this rank's row slice, then the global sum: one
    // (3n+2)-wide collective carrying forces + energy + virial.
    auto forces = [&] {
      rep.partial_forces(ctx);
      log_compute();
      net::allreduce_sum(comm, rep.agg(),
                         net::AllreduceAlgo::RecursiveDoubling, &stats, logger);
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
      result.n = rep.n();
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
