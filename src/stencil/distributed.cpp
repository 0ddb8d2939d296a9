#include "stencil/distributed.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "core/exec.hpp"
#include "stencil/slab.hpp"

namespace coe::stencil {

DistributedWaveResult distributed_wave_run(
    int ranks, const DistributedWaveConfig& cfg,
    const std::function<double(double, double, double)>& u0) {
  assert(cfg.nx % static_cast<std::size_t>(ranks) == 0);
  DistributedWaveResult result;
  result.field.assign(cfg.nx * cfg.ny * cfg.nz, 0.0);

  net::NetLog local_log;
  net::NetLog& netlog = cfg.log ? *cfg.log : local_log;
  std::mutex stats_mtx;
  if (cfg.trace_ranks) {
    result.rank_traces.resize(static_cast<std::size_t>(ranks));
  }

  result.traffic = mpi::run(ranks, [&](mpi::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    // Modeled-cost skew only: every rank still executes identical
    // arithmetic, so the field cannot change.
    const double skew =
        comm.rank() == cfg.skew_rank ? cfg.skew_factor : 1.0;
    WaveSlab slab(cfg, comm.rank(), ranks, u0);
    const std::size_t lnx = slab.lnx(), plane = slab.plane();
    if (slab.first()) result.dt = slab.dt();

    core::ExecContext ctx(core::Backend::Seq, cfg.node);
    if (cfg.trace_ranks) {
      result.rank_traces[r].set_rank(comm.rank());
      ctx.set_trace(&result.rank_traces[r]);
      ctx.set_phase("stencil");
    }
    net::RankLogger logger((cfg.cluster || cfg.log) ? &netlog : nullptr,
                           comm.rank());
    double logged_sim = 0.0;
    auto log_compute = [&] {
      const double s = ctx.simulated_time();
      logger.compute(s - logged_sim);
      logged_sim = s;
    };

    // Halo plan: the two ghost-deep planes per direction, either one
    // neighbor carrying both faces (aggregated: 1 message per direction)
    // or one single-face neighbor per plane (the legacy 2 messages, with
    // the legacy tags).
    net::HaloPlan halo(&ctx);
    halo.set_logger(logger);
    const int left = comm.rank() - 1, right = comm.rank() + 1;
    if (cfg.aggregate_halos) {
      if (!slab.first()) {
        const int nb = halo.add_neighbor(left, /*send=*/30, /*recv=*/31);
        halo.add_send(nb, 2 * plane, plane);
        halo.add_send(nb, 3 * plane, plane);
        halo.add_recv(nb, 0, plane);
        halo.add_recv(nb, plane, plane);
      }
      if (!slab.last()) {
        const int nb = halo.add_neighbor(right, /*send=*/31, /*recv=*/30);
        halo.add_send(nb, lnx * plane, plane);
        halo.add_send(nb, (lnx + 1) * plane, plane);
        halo.add_recv(nb, (lnx + 2) * plane, plane);
        halo.add_recv(nb, (lnx + 3) * plane, plane);
      }
    } else {
      if (!slab.first()) {
        int nb = halo.add_neighbor(left, 20, 22);
        halo.add_send(nb, 2 * plane, plane);
        halo.add_recv(nb, 0, plane);
        nb = halo.add_neighbor(left, 21, 23);
        halo.add_send(nb, 3 * plane, plane);
        halo.add_recv(nb, plane, plane);
      }
      if (!slab.last()) {
        int nb = halo.add_neighbor(right, 22, 20);
        halo.add_send(nb, lnx * plane, plane);
        halo.add_recv(nb, (lnx + 2) * plane, plane);
        nb = halo.add_neighbor(right, 23, 21);
        halo.add_send(nb, (lnx + 1) * plane, plane);
        halo.add_recv(nb, (lnx + 3) * plane, plane);
      }
    }

    // One exchange + update phase. Interior planes [4, lnx) read only
    // locally-owned data (their a +/- 2 neighbors are non-ghost), so with
    // overlap enabled they run between begin() and finish(); the four
    // ghost-adjacent boundary planes run after the halos land.
    const std::size_t int_lo = 4;
    const std::size_t int_hi = std::max<std::size_t>(4, lnx);
    auto comm_step = [&](WaveSlab::Update upd) {
      slab.fill_yz_walls();
      log_compute();
      if (cfg.trace_ranks) ctx.set_phase("halo");
      halo.begin(comm, slab.u());
      if (cfg.trace_ranks) ctx.set_phase("stencil");
      if (cfg.overlap) slab.sweep(ctx, int_lo, int_hi, upd, skew);
      log_compute();
      if (cfg.trace_ranks) ctx.set_phase("halo");
      halo.finish(comm, slab.u());
      if (cfg.trace_ranks) ctx.set_phase("stencil");
      slab.fill_x_walls();
      if (cfg.overlap) {
        slab.sweep(ctx, 2, std::min<std::size_t>(4, lnx + 2), upd, skew);
        slab.sweep(ctx, int_hi, lnx + 2, upd, skew);
      } else {
        slab.sweep(ctx, 2, lnx + 2, upd, skew);
      }
      log_compute();
    };

    comm_step(WaveSlab::Update::Taylor);
    for (int s = 0; s < cfg.steps; ++s) {
      comm_step(WaveSlab::Update::Leapfrog);
      slab.rotate();
    }

    // Disjoint slabs: no race on the shared global field.
    slab.gather(result.field);

    std::lock_guard<std::mutex> lk(stats_mtx);
    result.halo.exchanges += halo.stats().exchanges;
    result.halo.messages += halo.stats().messages;
    result.halo.bytes += halo.stats().bytes;
  });

  if (cfg.cluster != nullptr) {
    result.modeled = net::reprice(netlog, *cfg.cluster, ranks);
  }
  return result;
}

}  // namespace coe::stencil
