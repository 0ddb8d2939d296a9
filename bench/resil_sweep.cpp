// coe::resil study: checkpoint-interval sweep under fault injection.
// Claim (Young/Daly): for an exponential fault process with mean MTBF and
// checkpoint cost C, the interval sqrt(2*C*MTBF) minimizes total time; both
// much shorter (checkpoint-dominated) and much longer (replay-dominated)
// intervals lose. Also sweeps GPU MTBF through the scheduler simulator to
// show the cluster-level price of failures.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "guard/guard.hpp"
#include "la/la.hpp"
#include "ode/integrator.hpp"
#include "resil/resil.hpp"
#include "sched/scheduler.hpp"

#include "bench/bench_main.hpp"

using namespace coe;

namespace {

struct Decay : ode::OdeRhs {
  void eval(double, const ode::NVector& y, ode::NVector& ydot) override {
    const auto ys = y.data();
    auto ds = ydot.data();
    for (std::size_t i = 0; i < ys.size(); ++i) ds[i] = -0.3 * ys[i];
  }
};

struct SweepPoint {
  double total = 0.0;
  double overhead = 0.0;
  double faults = 0.0;
  double checkpoints = 0.0;
};

SweepPoint run_point(double mtbf, double interval, std::size_t steps,
                     std::size_t n, int seeds,
                     obs::MetricsRegistry* metrics = nullptr) {
  SweepPoint acc;
  for (int seed = 1; seed <= seeds; ++seed) {
    auto ctx = core::make_device();
    Decay f;
    ode::NVector y(ctx, n, 1.0);
    ode::Rk4Stepper stepper(f, y, 0.0, 1e-4);
    resil::ResilienceConfig cfg;
    cfg.mtbf = mtbf;
    cfg.checkpoint_interval = interval;
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.metrics = metrics;
    auto rep = resil::run_resilient(
        stepper, ctx, steps, [&](std::size_t) { stepper.step(); }, cfg);
    if (!rep.completed) std::printf("  !! run did not complete\n");
    acc.total += rep.total_time;
    acc.overhead += rep.overhead();
    acc.faults += static_cast<double>(rep.faults);
    acc.checkpoints += static_cast<double>(rep.checkpoints);
  }
  const double inv = 1.0 / seeds;
  return {acc.total * inv, acc.overhead * inv, acc.faults * inv,
          acc.checkpoints * inv};
}

}  // namespace

COE_BENCH_MAIN(resil_sweep) {
  std::printf("=== coe::resil: MTBF x checkpoint-interval sweep ===\n\n");

  const std::size_t n = 512, steps = 4000;
  const int seeds = 5;

  // Modeled checkpoint cost for this app on the v100 model.
  auto probe_ctx = core::make_device();
  Decay f;
  ode::NVector y(probe_ctx, n, 1.0);
  ode::Rk4Stepper probe(f, y, 0.0, 1e-4);
  const double c = resil::modeled_checkpoint_cost(probe, probe_ctx);
  std::printf("app: RK4 stepper, n=%zu, %zu steps; checkpoint cost C ="
              " %.3g s (modeled)\n\n",
              n, steps, c);

  for (double mtbf : {0.005, 0.02, 0.1}) {
    const double yd = resil::young_daly_interval(mtbf, c);
    std::printf("MTBF = %g s  (Young/Daly interval = %.3g s), %d-seed"
                " averages:\n",
                mtbf, yd, seeds);
    core::Table t({"interval", "total time (s)", "overhead", "faults",
                   "checkpoints"});
    struct Cand {
      const char* label;
      double interval;
    };
    const Cand cands[] = {{"YD/10", yd / 10.0}, {"YD/3", yd / 3.0},
                          {"YD (optimal)", yd}, {"3 YD", yd * 3.0},
                          {"10 YD", yd * 10.0}};
    double best = 1e300;
    for (const auto& cand : cands) {
      best = std::min(best,
                      run_point(mtbf, cand.interval, steps, n, seeds).total);
    }
    for (const auto& cand : cands) {
      const auto p =
          run_point(mtbf, cand.interval, steps, n, seeds, &bench.metrics());
      std::string label = cand.label;
      if (p.total == best) label += " <-- min";
      t.row({label, core::Table::num(p.total, 6),
             core::Table::num(100.0 * p.overhead, 1) + "%",
             core::Table::num(p.faults, 1),
             core::Table::num(p.checkpoints, 1)});
    }
    t.print();
    std::printf("\n");
  }
  std::printf("-> total time is U-shaped in the interval; the Young/Daly"
              " point sits at (or next to) the bottom, and beats both"
              " 10x-shorter and 10x-longer checkpointing.\n\n");

  std::printf("=== scheduler under GPU failures (16 GPUs, SJF+quota) ===\n");
  core::Table s({"GPU MTBF (s)", "makespan", "utilization", "failures",
                 "requeues", "lost GPU-time"});
  auto jobs = sched::make_workload({1000, 60.0, 1.5, 0.0, 0.0, 21});
  for (double mtbf : {0.0, 20000.0, 5000.0, 1000.0}) {
    sched::SchedulerConfig cfg{16, sched::Policy::SjfQuota, 0.0, 0};
    cfg.gpu_mtbf = mtbf;
    cfg.gpu_repair_time = 120.0;
    cfg.fault_seed = 5;
    cfg.metrics = &bench.metrics();
    auto m = sched::Simulator(cfg).run(jobs);
    s.row({mtbf > 0.0 ? core::Table::num(mtbf, 0) : "reliable",
           core::Table::num(m.makespan, 0),
           core::Table::num(100.0 * m.utilization, 1) + "%",
           core::Table::num(double(m.gpu_failures), 0),
           core::Table::num(double(m.requeues), 0),
           core::Table::num(m.lost_gpu_time, 0)});
  }
  s.print();
  std::printf("-> shrinking MTBF converts useful GPU-time into lost work"
              " and repair downtime; all jobs still complete via requeue.\n\n");

  // ------------------------------------------------------------------
  // SDC ablation (DESIGN.md section 13): the same guarded CG solve under
  // seeded bit flips with the detection/containment stack peeled back in
  // layers. Flips land in the Krylov vectors AND the matrix values. "off"
  // lets every flip through. "abft" runs the Huang-Abraham check: the
  // identity e^T y = (A^T e)^T x holds for ANY x, so it catches corrupted
  // matrix values (stale checksum) but is structurally blind to operand
  // flips; on a trip the matrix is re-staged from its pristine source, but
  // the poisoned products already in the recursion are not recovered.
  // "guard" adds the checksum scrub + rollback-and-recompute and must
  // reproduce the clean answer bitwise.
  std::printf("=== SDC ablation: guarded CG, seeded bit flips ===\n");
  {
    auto a = la::poisson2d(24, 24);
    const std::size_t cgn = a.rows();
    const std::size_t cg_steps = 80;
    const int sdc_seeds = 3;
    core::Rng rng(7);
    std::vector<double> x_true(cgn), b(cgn);
    for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
    la::JacobiPreconditioner prec(a);
    // Zero tolerance: every step runs the full CG iteration.
    la::SolveOptions every_step;
    every_step.rel_tol = 0.0;

    // Clean reference: iterate sequence and simulated time with no
    // injection and no detection machinery.
    auto ctx_ref = core::make_device();
    la::CsrOperator plain_ref(a);
    std::vector<double> x_ref(cgn, 0.0);
    a.spmv(ctx_ref, x_true, b);
    la::Pcg cg_ref(ctx_ref, plain_ref, prec, b, x_ref, every_step);
    cg_ref.start();
    for (std::size_t st = 0; st < cg_steps; ++st) cg_ref.step();
    const double t_clean = ctx_ref.simulated_time();
    const double ref_norm = la::norm2(ctx_ref, x_ref);

    auto rel_err = [&](core::ExecContext& ctx, std::span<const double> x) {
      std::vector<double> d(cgn);
      la::axpby(ctx, 1.0, x, -1.0, x_ref, d);
      const double e = la::norm2(ctx, d);
      return ref_norm > 0.0 ? e / ref_norm : e;
    };

    struct Abl {
      double injected = 0.0, detected = 0.0, escape = 0.0;
      double err = 0.0, overhead = 0.0;
    };
    auto publish = [&](const char* mode, const Abl& p) {
      const std::string pre = std::string("sdc.") + mode + ".";
      bench.metrics().add(pre + "injected", p.injected);
      bench.metrics().add(pre + "detected", p.detected);
      bench.metrics().set(pre + "escape_rate", p.escape);
      bench.metrics().set(pre + "final_rel_err", p.err);
      bench.metrics().set(pre + "detect_overhead", p.overhead);
    };

    guard::SdcConfig sdc;
    sdc.every_polls = 2;  // one flip every second poll

    Abl off, abft, grd;
    for (int seed = 1; seed <= sdc_seeds; ++seed) {
      const std::uint64_t sdc_seed =
          static_cast<std::uint64_t>(seed) * 1000003 + 77;

      {  // detection off: flips land and stay.
        auto ctx = core::make_device();
        auto am = a;  // private matrix copy: flips target it too
        la::CsrOperator op(am);
        std::vector<double> x(cgn, 0.0);
        la::Pcg cg(ctx, op, prec, b, x, every_step);
        cg.start();
        guard::SdcConfig c = sdc;
        c.seed = sdc_seed;
        guard::SdcInjector inj(c);
        for (auto& [name, span] : cg.sdc_targets()) inj.add_target(name, span);
        inj.add_target("la.values", am.values());
        for (std::size_t st = 0; st < cg_steps; ++st) {
          inj.poll(ctx.simulated_time());
          cg.step();
        }
        off.injected += static_cast<double>(inj.injected());
        off.escape += inj.injected() > 0 ? 1.0 : 0.0;
        off.err += rel_err(ctx, x);
        off.overhead += (ctx.simulated_time() - t_clean) / t_clean;
      }

      {  // ABFT on, no rollback: matrix flips trip the stale checksum and
         // the matrix is re-staged, but operand flips and the already
         // propagated bad products escape.
        auto ctx = core::make_device();
        auto am = a;
        la::AbftCsrOperator op(am);
        std::vector<double> x(cgn, 0.0);
        la::Pcg cg(ctx, op, prec, b, x, every_step);
        cg.start();
        guard::SdcConfig c = sdc;
        c.seed = sdc_seed;
        guard::SdcInjector inj(c);
        for (auto& [name, span] : cg.sdc_targets()) inj.add_target(name, span);
        inj.add_target("la.values", am.values());
        double detected = 0.0;
        for (std::size_t st = 0; st < cg_steps; ++st) {
          inj.poll(ctx.simulated_time());
          cg.step();
          if (op.trips() > 0) {
            ++detected;
            std::copy(a.values().begin(), a.values().end(),
                      am.values().begin());
            op.clear_trips();
          }
        }
        abft.injected += static_cast<double>(inj.injected());
        abft.detected += detected;
        abft.escape += inj.injected() > 0
                           ? (static_cast<double>(inj.injected()) - detected) /
                                 static_cast<double>(inj.injected())
                           : 0.0;
        abft.err += rel_err(ctx, x);
        abft.overhead += (ctx.simulated_time() - t_clean) / t_clean;
      }

      {  // full guard: scrub + ABFT + rollback-and-recompute.
        auto ctx = core::make_device();
        auto am = a;
        la::AbftCsrOperator op(am);
        std::vector<double> x(cgn, 0.0);
        la::Pcg cg(ctx, op, prec, b, x, every_step);
        cg.start();
        guard::SdcConfig c = sdc;
        c.seed = sdc_seed;
        guard::SdcInjector inj(c);
        guard::DetectorSet det;
        auto& scrub = det.emplace<guard::ChecksumDetector>("scrub");
        for (auto& [name, span] : cg.sdc_targets()) {
          inj.add_target(name, span);
          scrub.add_target(name, span);
        }
        inj.add_target("la.values", am.values());
        scrub.add_target("la.values", am.values());
        resil::ResilienceConfig rc;
        rc.checkpoint_interval = 1e-300;
        rc.verify_hook = [&](std::size_t) {
          inj.poll(ctx.simulated_time());
          return det.check_all(ctx) && op.trips() == 0;
        };
        rc.on_rollback = [&](std::size_t) {
          // The matrix is static configuration, not checkpointed state:
          // recovery re-stages it from its pristine source.
          std::copy(a.values().begin(), a.values().end(),
                    am.values().begin());
          op.clear_trips();
          det.arm_all(ctx);
        };
        rc.corruption_count = [&] { return inj.injected(); };
        auto rep = resil::run_resilient(
            cg, ctx, cg_steps,
            [&](std::size_t) {
              cg.step();
              det.arm_all(ctx);
            },
            rc);
        if (!rep.completed) std::printf("  !! guarded run did not complete\n");
        grd.injected += static_cast<double>(rep.corruptions_seen);
        grd.detected += static_cast<double>(rep.detections);
        grd.escape += rep.escape_rate();
        grd.err += rel_err(ctx, x);
        grd.overhead += (ctx.simulated_time() - t_clean) / t_clean;
      }
    }
    const double inv = 1.0 / sdc_seeds;
    for (Abl* p : {&off, &abft, &grd}) {
      p->injected *= inv;
      p->detected *= inv;
      p->escape *= inv;
      p->err *= inv;
      p->overhead *= inv;
    }
    publish("off", off);
    publish("abft", abft);
    publish("guard", grd);

    core::Table t({"mode", "injected", "detected", "escape rate",
                   "final rel err", "overhead"});
    auto row = [&](const char* label, const Abl& p) {
      t.row({label, core::Table::num(p.injected, 1),
             core::Table::num(p.detected, 1),
             core::Table::num(100.0 * p.escape, 1) + "%",
             core::Table::num(p.err, 3),
             core::Table::num(100.0 * p.overhead, 1) + "%"});
    };
    row("detection off", off);
    row("ABFT only", abft);
    row("ABFT + scrub + rollback", grd);
    t.print();
    std::printf("-> the checksum identity holds for any operand, so ABFT"
                " alone catches matrix corruption but is blind to flips in"
                " the Krylov vectors; the full guard contains every flip and"
                " lands on the clean iterate sequence (rel err 0), paying"
                " for it in verify + replay time.\n");
  }
  return 0;
}
