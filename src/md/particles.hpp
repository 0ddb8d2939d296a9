#pragma once
// Particle storage for the ddcMD-style MD mini-app. Struct-of-arrays
// layout throughout -- Section 4.6: "To improve locality, we converted the
// array of structs to a struct of arrays."

#include <cstddef>
#include <vector>

#include "core/rng.hpp"

namespace coe::md {

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;
};

/// Periodic cubic box.
struct Box {
  double length = 1.0;

  double volume() const { return length * length * length; }
  /// Minimum-image displacement component.
  double wrap(double d) const {
    if (d > 0.5 * length) return d - length;
    if (d < -0.5 * length) return d + length;
    return d;
  }
  /// Folds a coordinate into [0, length).
  double fold(double c) const {
    while (c < 0.0) c += length;
    while (c >= length) c -= length;
    return c;
  }
};

/// SoA particle arrays.
struct Particles {
  std::size_t n = 0;
  std::vector<double> x, y, z;
  std::vector<double> vx, vy, vz;
  std::vector<double> fx, fy, fz;
  std::vector<double> mass;
  std::vector<int> type;

  explicit Particles(std::size_t count = 0) { resize(count); }

  void resize(std::size_t count) {
    n = count;
    x.assign(n, 0.0);
    y.assign(n, 0.0);
    z.assign(n, 0.0);
    vx.assign(n, 0.0);
    vy.assign(n, 0.0);
    vz.assign(n, 0.0);
    fx.assign(n, 0.0);
    fy.assign(n, 0.0);
    fz.assign(n, 0.0);
    mass.assign(n, 1.0);
    type.assign(n, 0);
  }

  void zero_forces() {
    std::fill(fx.begin(), fx.end(), 0.0);
    std::fill(fy.begin(), fy.end(), 0.0);
    std::fill(fz.begin(), fz.end(), 0.0);
  }

  /// Velocity-Verlet half kick of particle i: v += dt/2 * f / m.
  void half_kick(std::size_t i, double dt) {
    const double inv_m = 1.0 / mass[i];
    vx[i] += 0.5 * dt * fx[i] * inv_m;
    vy[i] += 0.5 * dt * fy[i] * inv_m;
    vz[i] += 0.5 * dt * fz[i] * inv_m;
  }

  /// Moves particle i by dt * v, folded back into the periodic box.
  void drift(std::size_t i, double dt, const Box& box) {
    x[i] = box.fold(x[i] + dt * vx[i]);
    y[i] = box.fold(y[i] + dt * vy[i]);
    z[i] = box.fold(z[i] + dt * vz[i]);
  }

  double kinetic_energy() const {
    double ke = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ke += 0.5 * mass[i] * (vx[i] * vx[i] + vy[i] * vy[i] + vz[i] * vz[i]);
    }
    return ke;
  }

  /// Instantaneous temperature in reduced units (k_B = 1).
  double temperature() const {
    if (n == 0) return 0.0;
    return 2.0 * kinetic_energy() / (3.0 * static_cast<double>(n));
  }

  /// Removes net momentum.
  void zero_momentum() {
    double px = 0.0, py = 0.0, pz = 0.0, m = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      px += mass[i] * vx[i];
      py += mass[i] * vy[i];
      pz += mass[i] * vz[i];
      m += mass[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      vx[i] -= px / m;
      vy[i] -= py / m;
      vz[i] -= pz / m;
    }
  }
};

/// Places particles on a perturbed cubic lattice with Maxwell-Boltzmann
/// velocities at the given temperature (reduced units).
void init_lattice(Particles& p, Box& box, std::size_t per_side,
                  double density, double temperature, core::Rng& rng);

}  // namespace coe::md
