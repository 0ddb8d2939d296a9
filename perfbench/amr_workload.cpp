// amr_cleverleaf: CleverLeaf on mini-SAMRAI (Table 5). One op is one
// compute_dt() + step() on a 768^2 Sod level tiled by four patches, as
// bench/table5_cleverleaf.cpp decomposes it. The level is long-lived: it is
// built and initialised in setup and stepped by every op.

#include <cmath>
#include <memory>

#include "amr/euler.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace coe;

constexpr std::int64_t kN = 768;
/// Re-initialise (untimed) after this many steps so every op steps a Sod
/// problem whose waves are far from the outflow boundary, where mass is
/// conserved exactly.
constexpr std::size_t kStepsPerInit = 256;

class AmrWorkload final : public Workload {
 public:
  explicit AmrWorkload(const Inputs& in)
      : mid_(std::llround(in.get("amr.mid_frac") * double(kN))),
        left_{in.get("amr.rho_l"), 0.0, 0.0, in.get("amr.p_l")},
        right_{in.get("amr.rho_r"), 0.0, 0.0, in.get("amr.p_r")} {}

  int warmup_ops() const override { return 2; }

  void setup() override {
    solver_.reset();
    level_.reset();
    ctx_.reset();
    pool_.reset();
    pool_ = std::make_unique<core::MemoryPool>();
    level_ = std::make_unique<amr::PatchLevel>(
        *pool_, amr::Box{0, 0, kN - 1, kN - 1}, 2, amr::BoundaryKind::Outflow);
    const std::int64_t h = kN / 2;
    level_->add_patch(amr::Box{0, 0, h - 1, h - 1});
    level_->add_patch(amr::Box{h, 0, kN - 1, h - 1});
    level_->add_patch(amr::Box{0, h, h - 1, kN - 1});
    level_->add_patch(amr::Box{h, h, kN - 1, kN - 1});
    ctx_ = std::make_unique<core::ExecContext>(core::make_device());
    cfg_.dx = cfg_.dy = 1.0 / double(kN);
    solver_ = std::make_unique<amr::EulerSolver>(*ctx_, *level_, cfg_);
    init();
  }

  void prepare() override {
    if (steps_ >= kStepsPerInit) init();
    mass_before_ = solver_->total_mass();
    sim_before_ = ctx_->simulated_time();
    launches_before_ = ctx_->counters().launches;
    flops_before_ = ctx_->counters().flops;
    bytes_before_ = ctx_->counters().bytes;
  }

  void run(bool traced, SpanLog* spans, long op) override {
    ctx_->set_trace(traced ? &trace_ : nullptr);
    {
      ScopedSpan s(spans, "amr.compute_dt", op);
      dt_ = solver_->compute_dt();
    }
    {
      ScopedSpan s(spans, "amr.step", op);
      solver_->step(dt_);
    }
    ++steps_;
    traced_ = traced;
    if (traced) traced_ops_ += 1;
  }

  OpCheck check(std::size_t) override {
    OpCheck c;
    if (!(dt_ > 0.0) || !std::isfinite(dt_)) c.fail("bad time step");
    const double mass = solver_->total_mass();
    if (std::abs(mass - mass_before_) > 1e-12 * std::abs(mass_before_)) {
      c.fail("mass not conserved");
    }
    const double gamma = cfg_.gamma;
    for (std::size_t p = 0; p < level_->num_patches(); ++p) {
      const auto& patch = level_->patch(p);
      const auto& rho = patch.field(amr::EulerSolver::kRho);
      const auto& mx = patch.field(amr::EulerSolver::kMx);
      const auto& my = patch.field(amr::EulerSolver::kMy);
      const auto& en = patch.field(amr::EulerSolver::kE);
      const amr::Box& b = patch.box();
      for (std::int64_t i = b.ilo; i <= b.ihi; ++i) {
        for (std::int64_t j = b.jlo; j <= b.jhi; ++j) {
          const double r = rho.at(i, j);
          const double ke =
              0.5 * (mx.at(i, j) * mx.at(i, j) + my.at(i, j) * my.at(i, j)) /
              r;
          const double pr = (gamma - 1.0) * (en.at(i, j) - ke);
          if (!(r > 0.0) || !(pr > 0.0)) {
            c.fail("non-positive density or pressure");
            return c;
          }
        }
      }
    }
    c.sim_s = ctx_->simulated_time() - sim_before_;
    if (traced_) {
      launches_ += ctx_->counters().launches - launches_before_;
      flops_ += ctx_->counters().flops - flops_before_;
      bytes_ += ctx_->counters().bytes - bytes_before_;
      sim_ += c.sim_s;
    }
    return c;
  }

  Metrics layers(SpanLog& spans, double op_wall_s) override {
    const double n_ops = std::max(traced_ops_, 1.0);
    ctx_->set_trace(nullptr);
    const double dt_s = time_calls(spans, "amr.compute_dt", 5,
                                   [&] { dt_ = solver_->compute_dt(); });
    const double step_s =
        time_calls(spans, "amr.step", 3, [&] { solver_->step(dt_); });
    steps_ += 3;
    const double ghosts_s = time_calls(spans, "amr.fill_ghosts", 5, [&] {
      level_->fill_ghosts(amr::EulerSolver::kRho);
    });
    const double sweep_s = time_calls(spans, "amr.value_at_sweep", 3, [&] {
      double sum = 0.0;
      for (std::int64_t i = 0; i < kN; ++i) {
        for (std::int64_t j = 0; j < kN; ++j) {
          sum += level_->value_at(amr::EulerSolver::kRho, i, j);
        }
      }
      sink(sum);
    });
    const double cells = double(kN) * double(kN);
    return {
        {"core.launches_per_op", launches_ / n_ops},
        {"core.flops_per_op", flops_ / n_ops},
        {"core.bytes_per_op", bytes_ / n_ops},
        {"core.sim_s_per_op", sim_ / n_ops},
        {"amr.compute_dt_s", dt_s},
        {"amr.step_s", step_s},
        {"amr.fill_ghosts_s", ghosts_s},
        {"amr.value_at_ns", 1e9 * sweep_s / cells},
        {"amr.cells_per_op", cells},
        // The op is exactly these two calls; fill_ghosts and value_at run
        // inside them.
        {"bench.layer_coverage",
         op_wall_s > 0 ? (dt_s + step_s) / op_wall_s : 0.0},
    };
  }

 private:
  void init() {
    const std::int64_t mid = mid_;
    const amr::PrimState l = left_, r = right_;
    solver_->init([mid, l, r](std::int64_t i, std::int64_t) {
      return i < mid ? l : r;
    });
    steps_ = 0;
  }

  std::int64_t mid_;
  amr::PrimState left_, right_;
  amr::EulerConfig cfg_;
  std::unique_ptr<core::MemoryPool> pool_;
  std::unique_ptr<amr::PatchLevel> level_;
  std::unique_ptr<core::ExecContext> ctx_;
  std::unique_ptr<amr::EulerSolver> solver_;
  obs::TraceBuffer trace_;
  std::size_t steps_ = 0;
  double dt_ = 0.0;
  double mass_before_ = 0.0, sim_before_ = 0.0;
  double launches_before_ = 0.0, flops_before_ = 0.0, bytes_before_ = 0.0;
  bool traced_ = false;
  double traced_ops_ = 0;
  double launches_ = 0, flops_ = 0, bytes_ = 0, sim_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_amr_cleverleaf(const Inputs& in) {
  return std::make_unique<AmrWorkload>(in);
}

}  // namespace perfbench
