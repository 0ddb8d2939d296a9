// ranks_wave_md: the two rank drivers, on 4 rank threads. One op is one
// distributed_wave_run (SW4-style slab decomposition, halo exchange every
// step) followed by one replicated_md_run (ddcMD-style replicated data, one
// aggregated allreduce per step). It is the only workload that reaches the
// stencil, md, net and mpi layers.

#include <sched.h>

#include <cmath>
#include <map>
#include <memory>

#include "harness.hpp"
#include "core/rng.hpp"
#include "md/md.hpp"
#include "md/replicated.hpp"
#include "stencil/distributed.hpp"
#include "stencil/wave.hpp"

namespace perfbench {

namespace {

using namespace coe;

constexpr int kRanks = 4;
constexpr std::size_t kWaveN = 96;
constexpr int kSteps = 40;
constexpr std::size_t kMdSide = 16;  // 4096 particles

/// Restricts the calling thread, and so every rank thread spawned from it,
/// to the last CPU it may run on. A rank that waits then yields to another
/// rank on the same CPU instead of leaving its CPU idle; on a virtual
/// machine, waking an idle vCPU goes through the hypervisor, whose delay on
/// a shared host moved the op's wall time by up to 40% between runs while
/// its CPU time held within 2%. The op measures the drivers' work and
/// messaging, not their parallel speed-up.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  if (last < 0) throw std::runtime_error("no CPU to run on");
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

class RanksWorkload final : public Workload {
 public:
  explicit RanksWorkload(const Inputs& in)
      : cx_(in.get("wave.cx")), cy_(in.get("wave.cy")), cz_(in.get("wave.cz")),
        width_(in.get("wave.width")),
        cluster_(hsim::clusters::sierra(kRanks)) {
    wave_cfg_.nx = wave_cfg_.ny = wave_cfg_.nz = kWaveN;
    wave_cfg_.steps = kSteps;
    md_cfg_.per_side = kMdSide;
    md_cfg_.steps = kSteps;
    md_cfg_.seed = static_cast<std::uint64_t>(in.get("md.seed"));
    pin_to_one_cpu();
  }

  int warmup_ops() const override { return 1; }

  double u0(double x, double y, double z) const {
    const double r2 = (x - cx_) * (x - cx_) + (y - cy_) * (y - cy_) +
                      (z - cz_) * (z - cz_);
    return std::exp(-r2 / (width_ * width_));
  }

  void run(bool traced, SpanLog* spans, long op) override {
    auto wave_cfg = wave_cfg_;
    auto md_cfg = md_cfg_;
    net::NetLog wave_log, md_log;
    if (traced) {
      wave_cfg.trace_ranks = true;
      wave_cfg.log = &wave_log;
      wave_cfg.cluster = &cluster_;
      md_cfg.log = &md_log;
      md_cfg.cluster = &cluster_;
    }
    {
      ScopedSpan s(spans, "stencil.distributed_wave_run", op);
      wave_ = stencil::distributed_wave_run(
          kRanks, wave_cfg,
          [this](double x, double y, double z) { return u0(x, y, z); });
    }
    {
      ScopedSpan s(spans, "md.replicated_md_run", op);
      md_ = md::replicated_md_run(kRanks, md_cfg);
    }
    traced_ = traced;
    if (traced) accumulate();
  }

  OpCheck check(std::size_t index) override {
    OpCheck c;
    if (anchor_.empty()) anchor_ = wave_.field;
    double d = 0.0;
    if (wave_.field.size() != anchor_.size()) {
      c.fail("wave field has the wrong size");
      d = INFINITY;
    } else {
      for (std::size_t i = 0; i < anchor_.size(); ++i) {
        d = std::max(d, std::abs(wave_.field[i] - anchor_[i]));
      }
    }
    wave_diff_[index] = d;
    energy_[index] = md_.potential + md_.kinetic;
    dt_[index] = wave_.dt;
    if (!std::isfinite(energy_[index])) c.fail("non-finite MD energy");
    if (md_.n != kMdSide * kMdSide * kMdSide) c.fail("wrong particle count");
    if (traced_) {
      c.sim_s = wave_.modeled.timeline_s + md_.modeled.timeline_s;
      if (!wave_.modeled.well_formed || !md_.modeled.well_formed) {
        c.fail("traffic replay did not complete");
      }
    }
    return c;
  }

  std::vector<std::pair<std::size_t, std::string>> verify_all() override {
    std::vector<std::pair<std::size_t, std::string>> bad;
    if (anchor_.empty()) return bad;
    // Serial reference, as test_mpi's Distributed3dWaveMatchesSerialSolver.
    const double dt = dt_.begin()->second;
    auto ctx = core::make_seq();
    stencil::WaveSolver serial(ctx, kWaveN, kWaveN, kWaveN,
                               wave_cfg_.length, wave_cfg_.c, {});
    serial.set_initial(
        [this](double x, double y, double z) { return u0(x, y, z); },
        [](double, double, double) { return 0.0; }, dt);
    for (int s = 0; s < kSteps; ++s) serial.step(dt);
    double e = 0.0;
    for (std::size_t i = 0; i < kWaveN; ++i) {
      for (std::size_t j = 0; j < kWaveN; ++j) {
        for (std::size_t k = 0; k < kWaveN; ++k) {
          const double a = anchor_[(i * kWaveN + j) * kWaveN + k];
          e = std::max(e, std::abs(a - serial.at(i, j, k)));
        }
      }
    }
    // Single-rank MD reference, as test_net's
    // ReplicatedMdConservesAndMatchesSingleRank.
    const auto one = md::replicated_md_run(1, md_cfg_);
    const double e1 = one.potential + one.kinetic;
    for (const auto& [index, d] : wave_diff_) {
      // |op - serial| <= |op - anchor| + |anchor - serial|.
      if (!(d + e <= 1e-12) || dt_[index] != dt) {
        bad.emplace_back(index, "wave field differs from the serial solver");
      } else if (!(std::abs(energy_[index] - e1) <=
                   1e-8 * std::abs(e1) + 1e-10)) {
        bad.emplace_back(index, "MD energy differs from the 1-rank run");
      }
    }
    return bad;
  }

  Metrics layers(SpanLog& spans, double op_wall_s) override;

 private:
  void accumulate() {
    traced_ops_ += 1;
    for (const auto& buf : wave_.rank_traces) {
      for (const auto& ev : buf.snapshot()) {
        if (ev.kind != obs::TraceEvent::Kind::Kernel) continue;
        launches_ += 1;
        flops_ += ev.flops;
        bytes_ += ev.bytes;
      }
      launches_ += double(buf.dropped());
    }
    sim_ += wave_.modeled.timeline_s + md_.modeled.timeline_s;
    net_messages_ += double(wave_.halo.messages + md_.net.messages);
    net_bytes_ += wave_.halo.bytes + md_.net.bytes;
    net_reductions_ += double(md_.net.reductions);
    mpi_messages_ += double(wave_.traffic.messages + md_.traffic.messages);
    mpi_bytes_ += wave_.traffic.bytes + md_.traffic.bytes;
    mpi_retries_ += double(wave_.traffic.retries + md_.traffic.retries);
  }

  double cx_, cy_, cz_, width_;
  hsim::ClusterModel cluster_;
  stencil::DistributedWaveConfig wave_cfg_;
  md::ReplicatedConfig md_cfg_;
  stencil::DistributedWaveResult wave_;
  md::ReplicatedResult md_;
  bool traced_ = false;
  // Check data: the first op's field, and per op its distance from it.
  std::vector<double> anchor_;
  std::map<std::size_t, double> wave_diff_, energy_, dt_;
  // Traced-phase sums.
  double traced_ops_ = 0;
  double launches_ = 0, flops_ = 0, bytes_ = 0, sim_ = 0;
  double net_messages_ = 0, net_bytes_ = 0, net_reductions_ = 0;
  double mpi_messages_ = 0, mpi_bytes_ = 0, mpi_retries_ = 0;
};

/// Median seconds of `reps` calls on rank 0, each started together on every
/// rank after a barrier. make(comm) builds a rank's state untimed and
/// returns the call to time.
template <typename Make>
double time_on_ranks(SpanLog& spans, const std::string& name, int reps,
                     Make&& make) {
  std::vector<double> t;
  mpi::run(kRanks, [&](mpi::Communicator& comm) {
    auto call = make(comm);
    for (int r = 0; r < reps; ++r) {
      comm.barrier();
      const double t0 = now_s();
      call();
      const double t1 = now_s();
      if (comm.rank() == 0) {
        spans.add(name, t0, t1, -1);
        t.push_back(t1 - t0);
      }
    }
  });
  return median(t);
}

Metrics RanksWorkload::layers(SpanLog& spans, double op_wall_s) {
  const double n_ops = std::max(traced_ops_, 1.0);
  const std::size_t lnx = kWaveN / kRanks;
  const std::size_t plane = (kWaveN + 4) * (kWaveN + 4);

  // One rank's slab through the serial kernel.
  auto ctx = core::make_seq();
  stencil::WaveSolver slab(ctx, lnx, kWaveN, kWaveN, wave_cfg_.length,
                           wave_cfg_.c, {});
  const double dt = slab.stable_dt();
  slab.set_initial([this](double x, double y, double z) { return u0(x, y, z); },
                   [](double, double, double) { return 0.0; }, dt);
  const double wave_step_s =
      time_calls(spans, "stencil.wave_step", 5, [&] { slab.step(dt); });

  // The slab halo plan of distributed_wave_run (aggregated faces).
  std::vector<std::vector<double>> fields(
      kRanks, std::vector<double>((lnx + 4) * plane, 1.0));
  const double halo_s = time_on_ranks(
      spans, "net.halo_exchange", 20, [&](mpi::Communicator& comm) {
        auto halo = std::make_shared<net::HaloPlan>();
        const int r = comm.rank();
        if (r > 0) {
          const int nb = halo->add_neighbor(r - 1, 30, 31);
          halo->add_send(nb, 2 * plane, 2 * plane);
          halo->add_recv(nb, 0, 2 * plane);
        }
        if (r + 1 < kRanks) {
          const int nb = halo->add_neighbor(r + 1, 31, 30);
          halo->add_send(nb, lnx * plane, 2 * plane);
          halo->add_recv(nb, (lnx + 2) * plane, 2 * plane);
        }
        auto& f = fields[static_cast<std::size_t>(r)];
        return [&comm, halo, &f] {
          halo->begin(comm, f);
          halo->finish(comm, f);
        };
      });

  const std::size_t n = kMdSide * kMdSide * kMdSide;
  std::vector<std::vector<double>> bufs(kRanks,
                                        std::vector<double>(3 * n + 2, 1.0));
  const double allreduce_s = time_on_ranks(
      spans, "net.allreduce", 20, [&](mpi::Communicator& comm) {
        auto& buf = bufs[static_cast<std::size_t>(comm.rank())];
        return [&comm, &buf] {
          net::allreduce_sum(comm, buf, net::AllreduceAlgo::RecursiveDoubling);
        };
      });

  const double spawn_s = time_calls(spans, "mpi.world_spawn", 20, [] {
    mpi::run(kRanks, [](mpi::Communicator&) {});
  });

  // The MD system of this seed, whole (every rank builds the full list).
  core::Rng rng(md_cfg_.seed);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, md_cfg_.per_side, md_cfg_.density,
                   md_cfg_.temperature, rng);
  md::LennardJones pot(1.0, 1.0, md_cfg_.rcut);
  md::NeighborList nl(md_cfg_.rcut, md_cfg_.skin);
  const double build_s = time_calls(spans, "md.neighbor_build", 5,
                                    [&] { nl.build(ctx, p, box); });
  const double forces_s = time_calls(spans, "md.pair_forces", 5, [&] {
    p.zero_forces();
    sink(md::compute_pair_forces(ctx, p, box, nl, pot).energy);
  });

  // Blocking calls of one op. The ranks share one CPU, so their work adds
  // up: per wave step every rank's slab step and one halo exchange (timed
  // on all ranks at once); two world spawns; every rank's initial neighbor
  // build; per MD force pass the pair forces of all rows (split over the
  // ranks) and one allreduce.
  const double covered =
      kSteps * (kRanks * wave_step_s + halo_s) + 2 * spawn_s +
      kRanks * build_s + (kSteps + 1) * (forces_s + allreduce_s);
  return {
      {"core.launches_per_op", launches_ / n_ops},
      {"core.flops_per_op", flops_ / n_ops},
      {"core.bytes_per_op", bytes_ / n_ops},
      {"core.sim_s_per_op", sim_ / n_ops},
      {"stencil.wave_step_s", wave_step_s},
      {"net.halo_exchange_s", halo_s},
      {"net.allreduce_s", allreduce_s},
      {"net.messages_per_op", net_messages_ / n_ops},
      {"net.bytes_per_op", net_bytes_ / n_ops},
      {"net.reductions_per_op", net_reductions_ / n_ops},
      {"mpi.world_spawn_s", spawn_s},
      {"mpi.messages_per_op", mpi_messages_ / n_ops},
      {"mpi.bytes_per_op", mpi_bytes_ / n_ops},
      {"mpi.retries_per_op", mpi_retries_ / n_ops},
      {"md.pair_forces_s", forces_s},
      {"md.neighbor_build_s", build_s},
      {"bench.layer_coverage", op_wall_s > 0 ? covered / op_wall_s : 0.0},
  };
}

}  // namespace

std::unique_ptr<Workload> make_ranks_wave_md(const Inputs& in) {
  return std::make_unique<RanksWorkload>(in);
}

}  // namespace perfbench
