#pragma once
// One x-slab of the distributed 4th-order wave kernel (DESIGN.md §17.2),
// internal to src/stencil. It owns the (u, u_prev, u_next) state, the CFL
// step, the odd-reflection walls, the Laplacian and the priced sweeps;
// distributed_wave_run (HaloPlan, overlap split) and survivable_wave_run
// (part-addressed messages, checkpoints) are two run loops over it. Slab
// `part` of `parts` holds global x-planes [part*lnx, (part+1)*lnx) at array
// planes [2, lnx+2); planes 0-1 and lnx+2..lnx+3 are the ghost halos.
// The stencil coefficients and Laplacian below are the serial
// WaveSolver's too.

#include <cstddef>
#include <functional>
#include <vector>

#include "core/exec.hpp"
#include "resil/checkpoint.hpp"

namespace coe::stencil {

/// 4th-order central second-difference coefficients.
inline constexpr double kC0 = -30.0 / 12.0;
inline constexpr double kC1 = 16.0 / 12.0;
inline constexpr double kC2 = -1.0 / 12.0;

/// 4th-order Laplacian of `u` at flat index `id` on a grid with x stride
/// `si`, y stride `sj` and unit z stride; `ih2` = 1 / h^2.
inline double laplacian4(const double* u, std::size_t id, std::size_t si,
                         std::size_t sj, double ih2) {
  const double lx = kC2 * (u[id - 2 * si] + u[id + 2 * si]) +
                    kC1 * (u[id - si] + u[id + si]) + kC0 * u[id];
  const double ly = kC2 * (u[id - 2 * sj] + u[id + 2 * sj]) +
                    kC1 * (u[id - sj] + u[id + sj]) + kC0 * u[id];
  const double lz = kC2 * (u[id - 2] + u[id + 2]) +
                    kC1 * (u[id - 1] + u[id + 1]) + kC0 * u[id];
  return (lx + ly + lz) * ih2;
}

class WaveSlab : public resil::Checkpointable {
 public:
  using InitialField = std::function<double(double, double, double)>;

  /// Which time level a sweep writes: the Taylor backstep fills u_prev
  /// (v0 = 0); the leapfrog step fills u_next (then call rotate()).
  enum class Update { Taylor, Leapfrog };

  /// `cfg` supplies nx, ny, nz, length, c and dt_factor.
  template <typename Cfg>
  WaveSlab(const Cfg& cfg, int part, int parts, const InitialField& u0)
      : WaveSlab(cfg.nx, cfg.ny, cfg.nz, cfg.length, cfg.c, cfg.dt_factor,
                 part, parts, u0) {}

  double dt() const { return dt_; }
  std::size_t lnx() const { return lnx_; }
  std::size_t plane() const { return plane_; }
  bool first() const { return first_; }
  bool last() const { return last_; }
  /// The current level, ghost planes included.
  std::vector<double>& u() { return u_; }
  const std::vector<double>& u() const { return u_; }

  /// Zero-Dirichlet walls on the y/z faces of every plane.
  void fill_yz_walls();
  /// Zero-Dirichlet walls on the global x faces (first/last slab only).
  void fill_x_walls();

  /// Runs `update` over the interior points of x-planes [a0, a1) and
  /// charges the node model `skew` times the per-point cost. Every point
  /// performs the same arithmetic whichever sweep it lands in, so splitting
  /// a step into several sweeps cannot change a single bit.
  void sweep(core::ExecContext& ctx, std::size_t a0, std::size_t a1,
             Update update, double skew = 1.0);
  /// Ends a leapfrog step: u_prev <- u, u <- u_next.
  void rotate();

  /// Copies the interior into the global x-major nx*ny*nz field.
  void gather(std::vector<double>& field) const;

  /// (u, u_prev); u_next is scratch that every step writes before reading.
  void save_state(std::vector<double>& out) const override;
  void restore_state(const std::vector<double>& in) override;

 private:
  WaveSlab(std::size_t nx, std::size_t ny, std::size_t nz, double length,
           double c, double dt_factor, int part, int parts,
           const InitialField& u0);

  std::size_t idx(std::size_t a, std::size_t j, std::size_t k) const {
    return (a * my_ + j) * mz_ + k;
  }

  int part_;
  std::size_t ny_, nz_, lnx_, my_, mz_, plane_, mx_;
  bool first_, last_;
  double dt_ = 0.0, cdt2_ = 0.0, ih2_ = 0.0;
  std::vector<double> u_, up_, un_;
};

}  // namespace coe::stencil
