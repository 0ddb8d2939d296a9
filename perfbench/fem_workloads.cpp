// fem_table4 and fem_fig8: the nonlinear diffusion driver (mini-MFEM
// partial assembly + BoomerAMG-on-LOR + BDF) run the two ways the paper's
// Table 4 and Figure 8 run it. Table 4's op is assembly-heavy (one implicit
// step per order, setup dominates); Figure 8's op is solve-heavy (several
// BDF steps on one mesh, assembly once).

#include <cmath>
#include <functional>
#include <memory>

#include "amg/boomeramg.hpp"
#include "fem/fem.hpp"
#include "harness.hpp"
#include "prof/span.hpp"

namespace perfbench {

namespace {

using namespace coe;

/// One NonlinearDiffusion construct + run() inside an op.
struct Solve {
  std::size_t order = 2;
  std::size_t nx = 8;
};

/// Per-solve sums over the traced ops (the profiler's spans and counters).
struct SolveTotals {
  double formulation_s = 0, preconditioner_s = 0, solve_s = 0;
  double formulation_calls = 0, preconditioner_calls = 0, solve_calls = 0;
  double cg_spmv_s = 0, cg_spmv_calls = 0;      // operator applies in CG
  double cg_precond_s = 0, cg_precond_calls = 0;
  double cg_blas1_s = 0, cg_blas1_calls = 0;
  double solve_precond_calls = 0;  // V-cycles (Newton CG only)

  SolveTotals& operator+=(const SolveTotals& o) {
    formulation_s += o.formulation_s;
    preconditioner_s += o.preconditioner_s;
    solve_s += o.solve_s;
    formulation_calls += o.formulation_calls;
    preconditioner_calls += o.preconditioner_calls;
    solve_calls += o.solve_calls;
    cg_spmv_s += o.cg_spmv_s;
    cg_spmv_calls += o.cg_spmv_calls;
    cg_precond_s += o.cg_precond_s;
    cg_precond_calls += o.cg_precond_calls;
    cg_blas1_s += o.cg_blas1_s;
    cg_blas1_calls += o.cg_blas1_calls;
    solve_precond_calls += o.solve_precond_calls;
    return *this;
  }
};

const prof::Profiler::Node* find_child(const prof::Profiler::Node& n,
                                       const std::string& name) {
  for (const auto& c : n.children) {
    if (c->name == name) return c.get();
  }
  return nullptr;
}

/// Sums every "cg/<stage>" node below `n` into the totals.
void add_cg_stages(const prof::Profiler::Node& n, SolveTotals& t) {
  for (const auto& c : n.children) {
    if (c->name == "cg") {
      for (const auto& s : c->children) {
        if (s->name == "spmv") {
          t.cg_spmv_s += s->wall_s;
          t.cg_spmv_calls += double(s->calls);
        } else if (s->name == "precond") {
          t.cg_precond_s += s->wall_s;
          t.cg_precond_calls += double(s->calls);
        } else if (s->name == "blas1") {
          t.cg_blas1_s += s->wall_s;
          t.cg_blas1_calls += double(s->calls);
        }
      }
    }
    add_cg_stages(*c, t);
  }
}

class FemWorkload final : public Workload {
 public:
  /// `table4`: the Table 4 configuration (UM-derated V100 with a P9-thread
  /// shadow, one implicit step per solve); otherwise Figure 8's (P100,
  /// several BDF steps).
  FemWorkload(const Inputs& in, bool table4) : table4_(table4) {
    const double a = in.get("fem.a");
    const double b = in.get("fem.b");
    k_ = [a, b](double u) { return a + b * u * u; };
    if (table4) {
      // Table 4's smallest row (~20.8k unknowns) at p = 2, 4, 8.
      solves_ = {{2, 72}, {4, 36}, {8, 18}};
    } else {
      solves_ = {{4, 24}};
    }
    totals_.resize(solves_.size());
    u0_max_.resize(solves_.size());
  }

  int warmup_ops() const override { return 1; }

  fem::DiffusionConfig config(const Solve& s) const {
    fem::DiffusionConfig cfg;
    cfg.nx = s.nx;
    cfg.order = s.order;
    cfg.conductivity = k_;
    if (table4_) {  // exactly as bench/table4_fem_speedup.cpp
      cfg.t_final = 1e-4;
      cfg.dt_init = 1e-4;
      cfg.rtol = 1e-3;
      cfg.max_timesteps = 1;
    } else {
      cfg.t_final = 1e-2;  // stopped by max_timesteps
      cfg.dt_init = 1e-4;
      cfg.rtol = 1e-4;
      cfg.max_timesteps = 6;
    }
    return cfg;
  }

  core::ExecContext make_context(std::size_t* shadow) const {
    if (!table4_) return core::make_device(hsim::machines::p100());
    auto v100_um = hsim::machines::v100();
    v100_um.name = "V100 (UM-managed)";
    v100_um.bw_efficiency = 0.55;
    auto ctx = core::make_device(v100_um);
    *shadow = ctx.add_shadow(hsim::machines::power9_thread());
    return ctx;
  }

  void setup() override {
    // Initial maxima for the maximum-principle check (input generation).
    for (std::size_t i = 0; i < solves_.size(); ++i) {
      auto ctx = core::make_seq();
      fem::NonlinearDiffusion app(ctx, config(solves_[i]));
      u0_max_[i] = max_abs(app.solution());
    }
  }

  void run(bool traced, SpanLog* spans, long op) override {
    last_.assign(solves_.size(), {});
    for (std::size_t i = 0; i < solves_.size(); ++i) {
      ScopedSpan span(spans, "fem.solve.p" + std::to_string(solves_[i].order),
                      op);
      std::size_t shadow = 0;
      auto ctx = make_context(&shadow);
      auto cfg = config(solves_[i]);
      prof::Profiler profiler;
      if (traced) {
        trace_.clear();
        ctx.set_trace(&trace_);
        cfg.profiler = &profiler;
      }
      fem::NonlinearDiffusion app(ctx, cfg);
      const auto rep = app.run();

      auto& out = last_[i];
      out.report = rep;
      out.max_abs = max_abs(app.solution());
      out.sim_s = ctx.simulated_time();
      out.ratio = table4_ ? ctx.shadow_time(shadow) / ctx.simulated_time()
                          : 0.0;
      out.launches = ctx.counters().launches;
      out.flops = ctx.counters().flops;
      out.bytes = ctx.counters().bytes;
      if (traced) accumulate(i, profiler, rep, out);
    }
    if (traced) traced_ops_ += 1;
  }

  OpCheck check(std::size_t) override {
    OpCheck c;
    c.sim_s = 0.0;
    for (std::size_t i = 0; i < solves_.size(); ++i) {
      const auto& out = last_[i];
      const auto& ode = out.report.ode;
      const std::string p = " (p=" + std::to_string(solves_[i].order) + ")";
      if (!std::isfinite(out.max_abs)) c.fail("non-finite solution" + p);
      if (out.max_abs > u0_max_[i]) c.fail("maximum principle violated" + p);
      if (ode.newton_failures || ode.error_test_failures) {
        c.fail("BDF step failures" + p);
      }
      if (ode.steps == 0) c.fail("no time step taken" + p);
      c.sim_s += out.sim_s;
      if (table4_) c.ratios.push_back(out.ratio);
    }
    return c;
  }

  Metrics layers(SpanLog& spans, double op_wall_s) override;

 private:
  struct Output {
    fem::DiffusionReport report;
    double max_abs = 0.0, sim_s = 0.0, ratio = 0.0;
    double launches = 0.0, flops = 0.0, bytes = 0.0;
  };

  static double max_abs(std::span<const double> u) {
    double m = 0.0;
    for (double v : u) m = std::max(m, std::abs(v));
    return m;
  }

  void accumulate(std::size_t i, const prof::Profiler& profiler,
                  const fem::DiffusionReport& rep, const Output& out) {
    auto& t = totals_[i];
    const auto& root = profiler.root();
    if (const auto* n = find_child(root, "formulation")) {
      t.formulation_s += n->wall_s;
      t.formulation_calls += double(n->calls);
    }
    if (const auto* n = find_child(root, "preconditioner")) {
      t.preconditioner_s += n->wall_s;
      t.preconditioner_calls += double(n->calls);
    }
    if (const auto* n = find_child(root, "solve")) {
      t.solve_s += n->wall_s;
      t.solve_calls += double(n->calls);
      if (const auto* cg = find_child(*n, "cg")) {
        if (const auto* pc = find_child(*cg, "precond")) {
          t.solve_precond_calls += double(pc->calls);
        }
      }
    }
    add_cg_stages(root, t);
    launches_ += out.launches;
    flops_ += out.flops;
    bytes_ += out.bytes;
    sim_ += out.sim_s;
    steps_ += double(rep.ode.steps);
    lin_setups_ += double(rep.ode.lin_setups);
    rhs_evals_ += double(rep.ode.rhs_evals);
    newton_iters_ += double(rep.ode.newton_iters);
    step_failures_ +=
        double(rep.ode.error_test_failures + rep.ode.newton_failures);
    cg_iters_ += double(rep.cg_iterations);
    cg_solves_ += double(rep.cg_solves);
    mass_cg_iters_ += double(rep.mass_cg_iterations);
  }

  bool table4_;
  std::function<double(double)> k_;
  std::vector<Solve> solves_;
  std::vector<double> u0_max_;
  std::vector<Output> last_;
  obs::TraceBuffer trace_;
  // Traced-phase sums.
  std::vector<SolveTotals> totals_;
  double traced_ops_ = 0;
  double launches_ = 0, flops_ = 0, bytes_ = 0, sim_ = 0;
  double steps_ = 0, lin_setups_ = 0, rhs_evals_ = 0, newton_iters_ = 0;
  double step_failures_ = 0, cg_iters_ = 0, cg_solves_ = 0;
  double mass_cg_iters_ = 0;
};

Metrics FemWorkload::layers(SpanLog& spans, double op_wall_s) {
  const double n_ops = std::max(traced_ops_, 1.0);
  SolveTotals sum;
  for (const auto& t : totals_) sum += t;
  auto per_call = [](double s, double calls) {
    return calls > 0 ? s / calls : 0.0;
  };

  // Probes on each solve's own mesh and coefficient: the Newton system
  // operator M + gamma K(u0) with gamma = the first step size. A "call"
  // below is one call on each of the op's meshes, summed.
  double diag_s = 0, lor_s = 0, amg_s = 0, vcycle_s = 0, spmv_s = 0;
  double apply_s = 0, complexity = 0, levels = 0, covered = 0;
  for (std::size_t i = 0; i < solves_.size(); ++i) {
    const auto cfg = config(solves_[i]);
    const std::string p = ".p" + std::to_string(solves_[i].order);
    std::size_t shadow = 0;
    auto ctx = make_context(&shadow);
    fem::NonlinearDiffusion app(ctx, cfg);
    const auto& mesh = app.mesh();
    fem::EllipticOperator sys(mesh, cfg.assembly, 1.0, cfg.dt_init);
    sys.set_kappa_from_nodal(app.solution(), cfg.conductivity);

    const double d = time_calls(spans, "fem.assemble_diagonal" + p, 3, [&] {
      sink(sys.assemble_diagonal()[0]);
    });
    la::CsrMatrix lor;
    const double l = time_calls(spans, "fem.assemble_lor" + p, 3,
                                [&] { lor = sys.assemble_lor(); });
    std::vector<la::CsrMatrix> copies(3, lor);
    std::unique_ptr<amg::BoomerAmg> amg;
    std::size_t next = 0;
    const double a = time_calls(spans, "amg.setup" + p, 3, [&] {
      amg = std::make_unique<amg::BoomerAmg>(std::move(copies[next++]));
    });
    std::vector<double> x(app.solution().begin(), app.solution().end());
    std::vector<double> y(x.size(), 0.0);
    const double v = time_calls(spans, "amg.vcycle" + p, 5,
                                [&] { amg->apply(ctx, x, y); });
    const double s = time_calls(spans, "la.spmv" + p, 9,
                                [&] { lor.spmv(ctx, x, y); });
    const double ap = time_calls(spans, "fem.pa_apply" + p, 9,
                                 [&] { sys.apply(ctx, x, y); });
    diag_s += d;
    lor_s += l;
    amg_s += a;
    vcycle_s += v;
    spmv_s += s;
    apply_s += ap;
    complexity += amg->operator_complexity() / double(solves_.size());
    levels += double(amg->num_levels()) / double(solves_.size());

    // Blocking calls of one op on this mesh, from the traced spans: the
    // constructor-time diagonal, one LOR assembly + AMG setup per linear
    // setup, one operator apply per RHS evaluation, Newton solve and CG
    // iteration, one V-cycle per Newton-CG preconditioner apply.
    const auto& t = totals_[i];
    const double applies =
        t.formulation_calls + t.solve_calls + t.cg_spmv_calls;
    covered += d + ((l + a) * t.preconditioner_calls + ap * applies +
                    v * t.solve_precond_calls) /
                       n_ops;
  }

  const double spanned = sum.formulation_s + sum.preconditioner_s + sum.solve_s;
  return {
      {"core.launches_per_op", launches_ / n_ops},
      {"core.flops_per_op", flops_ / n_ops},
      {"core.bytes_per_op", bytes_ / n_ops},
      {"core.sim_s_per_op", sim_ / n_ops},
      {"fem.assemble_diagonal_s", diag_s},
      {"fem.assemble_lor_s", lor_s},
      {"fem.pa_apply_s", apply_s},
      {"fem.span.formulation_s",
       per_call(sum.formulation_s, sum.formulation_calls)},
      {"fem.span.preconditioner_s",
       per_call(sum.preconditioner_s, sum.preconditioner_calls)},
      {"fem.span.solve_s", per_call(sum.solve_s, sum.solve_calls)},
      {"fem.unspanned_per_op_s", op_wall_s - spanned / n_ops},
      {"amg.setup_s", amg_s},
      {"amg.vcycle_s", vcycle_s},
      {"amg.operator_complexity", complexity},
      {"amg.levels", levels},
      {"la.spmv_s", spmv_s},
      {"la.cg_iters_per_solve", per_call(cg_iters_, cg_solves_)},
      {"la.mass_cg_iters_per_op", mass_cg_iters_ / n_ops},
      {"la.span.cg.spmv_s", per_call(sum.cg_spmv_s, sum.cg_spmv_calls)},
      {"la.span.cg.precond_s",
       per_call(sum.cg_precond_s, sum.cg_precond_calls)},
      {"la.span.cg.blas1_s", per_call(sum.cg_blas1_s, sum.cg_blas1_calls)},
      {"ode.steps_per_op", steps_ / n_ops},
      {"ode.lin_setups_per_op", lin_setups_ / n_ops},
      {"ode.rhs_evals_per_op", rhs_evals_ / n_ops},
      {"ode.newton_iters_per_op", newton_iters_ / n_ops},
      {"ode.failed_step_ratio",
       per_call(step_failures_, steps_ + step_failures_)},
      {"bench.layer_coverage", op_wall_s > 0 ? covered / op_wall_s : 0.0},
  };
}

}  // namespace

std::unique_ptr<Workload> make_fem_table4(const Inputs& in) {
  return std::make_unique<FemWorkload>(in, true);
}

std::unique_ptr<Workload> make_fem_fig8(const Inputs& in) {
  return std::make_unique<FemWorkload>(in, false);
}

}  // namespace perfbench
