#pragma once
// The ddcMD-style MD driver: velocity-Verlet with Langevin thermostat,
// Berendsen barostat, and SHAKE distance constraints. Two placements model
// the paper's comparison (Section 4.6):
//
//  * Placement::AllGpu -- the ddcMD port: "we moved the entire MD loop to
//    the GPU" -- every kernel is charged to the device context and no
//    per-step host transfers occur.
//  * Placement::Split  -- the GROMACS-like baseline: nonbonded forces on
//    the GPU (single precision), bonded terms + integration on the CPU,
//    with positions shipped to the device and forces shipped back every
//    step.

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "md/forces.hpp"
#include "prof/span.hpp"
#include "resil/checkpoint.hpp"

namespace coe::md {

enum class Thermostat { None, Langevin };
enum class Barostat { None, Berendsen };
enum class Placement { AllGpu, Split };

struct SimConfig {
  double dt = 0.002;
  Thermostat thermostat = Thermostat::None;
  double temperature = 1.0;
  double langevin_gamma = 1.0;
  Barostat barostat = Barostat::None;
  double pressure = 1.0;
  double tau_p = 1.0;
  double compressibility = 0.05;
  Placement placement = Placement::AllGpu;
  std::uint64_t seed = 2718;
  /// Optional span sink: when set, each step() wraps its stages in
  /// "md_step" / "integrate" / "constraints" / "forces" / "thermostat"
  /// prof::Scope regions.
  prof::Profiler* profiler = nullptr;
};

/// A distance constraint |r_i - r_j| = d (SHAKE).
struct Constraint {
  std::uint32_t i, j;
  double d;
};

struct StepInfo {
  double potential = 0.0;
  double kinetic = 0.0;
  double virial = 0.0;
  double pressure = 0.0;
  std::size_t shake_iters = 0;

  double total() const { return potential + kinetic; }
};

template <typename Potential>
class Simulation : public resil::Checkpointable {
 public:
  Simulation(core::ExecContext& device, core::ExecContext& host,
             Particles particles, Box box, Potential pot, SimConfig cfg,
             double skin = 0.3)
      : device_(&device), host_(&host), p_(std::move(particles)), box_(box),
        pot_(std::move(pot)), cfg_(cfg),
        nl_(std::sqrt(pot_.rcut2()), skin), rng_(cfg.seed) {
    if (cfg_.placement == Placement::AllGpu) {
      // One-time upload of the whole system; it stays resident (named so an
      // attached residency arena tracks it and can evict under pressure).
      device_->upload("md.system", static_cast<double>(p_.n) * 9.0 * 8.0);
    }
    nl_.build(*device_, p_, box_);
    compute_forces();
  }

  Particles& particles() { return p_; }
  const Box& box() const { return box_; }
  void set_bonds(std::vector<Bond> b) { bonds_ = std::move(b); }
  void set_angles(std::vector<Angle> a) { angles_ = std::move(a); }
  void set_constraints(std::vector<Constraint> c) {
    constraints_ = std::move(c);
  }

  /// One velocity-Verlet step (with optional thermostat/barostat/SHAKE).
  StepInfo step() {
    const double dt = cfg_.dt;
    auto& integ = integration_ctx();
    prof::Scope step_span(cfg_.profiler, device_, "md_step");
    // Half kick, snapshot (SHAKE reference), then drift -- fused into one
    // kernel as ddcMD does, expressed through the fusion API. Stage
    // workloads sum to the {9, 96}-per-particle kernel charged before,
    // and each stage touches only particle i, so the per-particle
    // interleaving leaves the trajectory bitwise unchanged.
    xprev_.resize(p_.n);
    yprev_.resize(p_.n);
    zprev_.resize(p_.n);
    {
      prof::Scope kick_span(cfg_.profiler, &integ, "integrate");
      integ.fused(p_.n)
          .then({3.0, 36.0},
                [&](std::size_t i) { p_.half_kick(i, dt); })
          .then({0.0, 24.0},
                [&](std::size_t i) {
                  xprev_[i] = p_.x[i];
                  yprev_[i] = p_.y[i];
                  zprev_[i] = p_.z[i];
                })
          .then({6.0, 36.0},
                [&](std::size_t i) { p_.drift(i, dt, box_); })
          .launch();
    }

    StepInfo info;
    if (!constraints_.empty()) {
      prof::Scope shake_span(cfg_.profiler, &integ, "constraints");
      info.shake_iters = shake(dt);
    }

    {
      prof::Scope force_span(cfg_.profiler, device_, "forces");
      if (nl_.needs_rebuild(p_, box_)) nl_.build(*device_, p_, box_);
      info = compute_forces(info);
    }

    {
      prof::Scope kick_span(cfg_.profiler, &integ, "integrate");
      // Second half kick (same pricing as the record_kernel it replaces).
      integ.forall(p_.n, {6.0, 96.0},
                   [&](std::size_t i) { p_.half_kick(i, dt); });
    }

    if (cfg_.thermostat != Thermostat::None ||
        cfg_.barostat != Barostat::None) {
      prof::Scope thermo_span(cfg_.profiler, &integ, "thermostat");
      if (cfg_.thermostat == Thermostat::Langevin) apply_langevin(dt);
      if (cfg_.barostat == Barostat::Berendsen) {
        apply_berendsen(dt, info.pressure);
      }
    }

    info.kinetic = p_.kinetic_energy();
    info.pressure = pressure(p_, box_, info.virial);
    return info;
  }

  /// Current energies without advancing time.
  StepInfo measure() {
    StepInfo info = compute_forces();
    info.kinetic = p_.kinetic_energy();
    info.pressure = pressure(p_, box_, info.virial);
    return info;
  }

  /// Priced |sum_i m_i v_i| — the conserved-momentum invariant coe::guard's
  /// drift detector monitors (exactly conserved with the thermostat off,
  /// near-stationary per step with Langevin at equilibrium).
  double momentum_norm() {
    auto& ctx = integration_ctx();
    double p2 = 0.0;
    for (const auto* v : {&p_.vx, &p_.vy, &p_.vz}) {
      const auto& vel = *v;
      const double c = ctx.reduce_sum(p_.n, {2.0, 16.0}, [&](std::size_t i) {
        return p_.mass[i] * vel[i];
      });
      p2 += c * c;
    }
    return std::sqrt(p2);
  }

  /// Named views of the live particle arrays for SDC targeting and
  /// checksum scrubbing (positions, velocities, forces — the state a bit
  /// flip would silently propagate through the trajectory).
  std::vector<std::pair<std::string, std::span<double>>> sdc_targets() {
    return {{"md.x", std::span<double>(p_.x)},
            {"md.y", std::span<double>(p_.y)},
            {"md.z", std::span<double>(p_.z)},
            {"md.vx", std::span<double>(p_.vx)},
            {"md.vy", std::span<double>(p_.vy)},
            {"md.vz", std::span<double>(p_.vz)},
            {"md.fx", std::span<double>(p_.fx)},
            {"md.fy", std::span<double>(p_.fy)},
            {"md.fz", std::span<double>(p_.fz)}};
  }

  /// Checkpointable: the full dynamic state — positions, velocities,
  /// forces, the (barostat-scaled) box, the thermostat RNG stream, and the
  /// neighbor list with its reference positions. Restoring and re-stepping
  /// reproduces the original trajectory bitwise.
  void save_state(std::vector<double>& out) const override {
    out.clear();
    out.push_back(box_.length);
    rng_.save_state(out);
    for (const auto* v : {&p_.x, &p_.y, &p_.z, &p_.vx, &p_.vy, &p_.vz,
                          &p_.fx, &p_.fy, &p_.fz}) {
      out.insert(out.end(), v->begin(), v->end());
    }
    nl_.save_state(out);
  }

  void restore_state(const std::vector<double>& in) override {
    const double* c = in.data();
    box_.length = *c++;
    c = rng_.load_state(c);
    for (auto* v : {&p_.x, &p_.y, &p_.z, &p_.vx, &p_.vy, &p_.vz, &p_.fx,
                    &p_.fy, &p_.fz}) {
      std::copy(c, c + p_.n, v->begin());
      c += p_.n;
    }
    nl_.load_state(c);
  }

 private:
  core::ExecContext& nonbonded_ctx() { return *device_; }
  core::ExecContext& integration_ctx() {
    return cfg_.placement == Placement::AllGpu ? *device_ : *host_;
  }

  StepInfo compute_forces(StepInfo info = StepInfo{}) {
    const double xfer = static_cast<double>(p_.n) * 3.0 * 4.0;
    if (cfg_.placement == Placement::Split) {
      // Ship positions to the device, forces back (single precision). The
      // CPU integrator rewrote the positions, so the upload never elides.
      device_->touch_host("md.positions", xfer, core::MemAccess::Write);
      device_->upload("md.positions", xfer);
    } else {
      // The whole system lives on the device; each force pass rewrites it.
      device_->touch_device("md.system", static_cast<double>(p_.n) * 9.0 * 8.0,
                            core::MemAccess::Write);
    }
    p_.zero_forces();
    const PairResult pr = compute_pair_forces(*device_, p_, box_, nl_, pot_);
    if (cfg_.placement == Placement::Split) {
      device_->touch_device("md.forces", xfer, core::MemAccess::Write);
      device_->writeback("md.forces", xfer);
    }
    auto& bonded = integration_ctx();
    info.potential = pr.energy;
    info.virial = pr.virial;
    if (!bonds_.empty()) {
      info.potential += compute_bond_forces(bonded, p_, box_, bonds_);
    }
    if (!angles_.empty()) {
      info.potential += compute_angle_forces(bonded, p_, box_, angles_);
    }
    info.pressure = pressure(p_, box_, info.virial);
    return info;
  }

  std::size_t shake(double dt) {
    // Iterative SHAKE on positions, then velocity correction.
    auto& ctx = integration_ctx();
    const double tol = 1e-10;
    std::size_t iters = 0;
    for (; iters < 100; ++iters) {
      double worst = 0.0;
      for (const auto& c : constraints_) {
        const double dx = box_.wrap(p_.x[c.i] - p_.x[c.j]);
        const double dy = box_.wrap(p_.y[c.i] - p_.y[c.j]);
        const double dz = box_.wrap(p_.z[c.i] - p_.z[c.j]);
        const double r2 = dx * dx + dy * dy + dz * dz;
        const double diff = r2 - c.d * c.d;
        worst = std::max(worst, std::abs(diff) / (c.d * c.d));
        if (std::abs(diff) < tol) continue;
        // Reference vector from pre-drift positions (classic SHAKE).
        const double rx = box_.wrap(xprev_[c.i] - xprev_[c.j]);
        const double ry = box_.wrap(yprev_[c.i] - yprev_[c.j]);
        const double rz = box_.wrap(zprev_[c.i] - zprev_[c.j]);
        const double mi = 1.0 / p_.mass[c.i];
        const double mj = 1.0 / p_.mass[c.j];
        const double dot = rx * dx + ry * dy + rz * dz;
        if (std::abs(dot) < 1e-14) continue;
        const double g = diff / (2.0 * (mi + mj) * dot);
        p_.x[c.i] = box_.fold(p_.x[c.i] - g * mi * rx);
        p_.y[c.i] = box_.fold(p_.y[c.i] - g * mi * ry);
        p_.z[c.i] = box_.fold(p_.z[c.i] - g * mi * rz);
        p_.x[c.j] = box_.fold(p_.x[c.j] + g * mj * rx);
        p_.y[c.j] = box_.fold(p_.y[c.j] + g * mj * ry);
        p_.z[c.j] = box_.fold(p_.z[c.j] + g * mj * rz);
      }
      if (worst < tol) break;
    }
    // Velocity correction so v matches the constrained trajectory.
    for (std::size_t i = 0; i < p_.n; ++i) {
      p_.vx[i] += (box_.wrap(p_.x[i] - xprev_[i]) - dt * p_.vx[i]) / dt;
      p_.vy[i] += (box_.wrap(p_.y[i] - yprev_[i]) - dt * p_.vy[i]) / dt;
      p_.vz[i] += (box_.wrap(p_.z[i] - zprev_[i]) - dt * p_.vz[i]) / dt;
    }
    ctx.record_kernel(
        {40.0 * double(constraints_.size()) * double(iters + 1),
         200.0 * double(constraints_.size()) * double(iters + 1)});
    return iters;
  }

  void apply_langevin(double dt) {
    auto& ctx = integration_ctx();
    const double c1 = std::exp(-cfg_.langevin_gamma * dt);
    ctx.record_kernel({12.0 * double(p_.n), 48.0 * double(p_.n)});
    for (std::size_t i = 0; i < p_.n; ++i) {
      const double sigma =
          std::sqrt(cfg_.temperature * (1.0 - c1 * c1) / p_.mass[i]);
      p_.vx[i] = c1 * p_.vx[i] + sigma * rng_.normal();
      p_.vy[i] = c1 * p_.vy[i] + sigma * rng_.normal();
      p_.vz[i] = c1 * p_.vz[i] + sigma * rng_.normal();
    }
  }

  void apply_berendsen(double dt, double current_pressure) {
    auto& ctx = integration_ctx();
    const double mu = std::cbrt(
        1.0 - cfg_.compressibility * dt / cfg_.tau_p *
                  (cfg_.pressure - current_pressure));
    box_.length *= mu;
    ctx.record_kernel({3.0 * double(p_.n), 48.0 * double(p_.n)});
    for (std::size_t i = 0; i < p_.n; ++i) {
      p_.x[i] *= mu;
      p_.y[i] *= mu;
      p_.z[i] *= mu;
    }
  }

  core::ExecContext* device_;
  core::ExecContext* host_;
  Particles p_;
  Box box_;
  Potential pot_;
  SimConfig cfg_;
  NeighborList nl_;
  core::Rng rng_;
  std::vector<Bond> bonds_;
  std::vector<Angle> angles_;
  std::vector<Constraint> constraints_;
  std::vector<double> xprev_, yprev_, zprev_;
};

}  // namespace coe::md
