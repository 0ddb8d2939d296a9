#pragma once
// CleverLeaf in miniature (Section 4.10.5, Table 5): a patch-based 2D
// compressible Euler solver (ideal gas, first-order local Lax-Friedrichs
// fluxes) running on the mini-SAMRAI patch hierarchy. All numerics are
// real; kernels charge flop/byte counts to the execution context so the
// Table 5 machine comparison can be regenerated.

#include <functional>
#include <string>

#include "amr/patch.hpp"

namespace coe::amr {

/// Primitive state (density, velocities, pressure).
struct PrimState {
  double rho = 1.0;
  double u = 0.0;
  double v = 0.0;
  double p = 1.0;
};

struct EulerConfig {
  double gamma = 1.4;
  double dx = 1.0;
  double dy = 1.0;
  double cfl = 0.4;
};

class EulerSolver {
 public:
  /// Registers the conserved fields on every patch of the level.
  EulerSolver(core::ExecContext& ctx, PatchLevel& level, EulerConfig cfg);

  /// Initializes from a primitive-state function of cell index.
  void init(const std::function<PrimState(std::int64_t, std::int64_t)>& f);

  /// CFL-limited timestep for the current state.
  double compute_dt() const;

  /// One conservative update of size dt.
  void step(double dt);

  /// Advances to time `t_end`; returns steps taken.
  std::size_t advance(double t_end);
  double time() const { return t_; }

  /// Domain integrals (conservation checks).
  double total_mass() const;
  double total_energy() const;
  double total_momentum_x() const;

  PrimState primitive_at(std::int64_t i, std::int64_t j) const;

  static const char* kRho;
  static const char* kMx;
  static const char* kMy;
  static const char* kE;

 private:
  /// Sum of `field` over every interior cell (compensated), times the
  /// cell area.
  double integral(const char* field) const;

  core::ExecContext* ctx_;
  PatchLevel* level_;
  EulerConfig cfg_;
  double t_ = 0.0;
};

/// Standard Sod shock-tube initializer along x (interface at i = i_mid).
PrimState sod_state(std::int64_t i, std::int64_t i_mid);

}  // namespace coe::amr
