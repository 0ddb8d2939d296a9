// Tests for the ddcMD-style MD module: potentials, neighbor lists,
// integrator invariants (NVE energy, momentum), thermostat/barostat
// targets, SHAKE constraints, and placement accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "md/md.hpp"

namespace {

using namespace coe;

TEST(Potentials, LennardJonesMinimumAtR0) {
  md::LennardJones lj(1.0, 1.0, 3.0);
  const double rmin2 = std::pow(2.0, 1.0 / 3.0);  // r = 2^(1/6) sigma
  // Force vanishes at the minimum.
  EXPECT_NEAR(lj(rmin2).fr, 0.0, 1e-12);
  // Repulsive inside, attractive outside.
  EXPECT_GT(lj(0.8).fr, 0.0);
  EXPECT_LT(lj(1.5).fr, 0.0);
  // Shifted to ~0 at the cutoff.
  EXPECT_NEAR(lj(9.0).energy, 0.0, 1e-12);
}

TEST(Potentials, LennardJonesForceMatchesEnergyDerivative) {
  md::LennardJones lj(1.0, 1.0, 3.0);
  for (double r : {0.95, 1.1, 1.5, 2.0}) {
    const double h = 1e-6;
    const double dudr =
        (lj((r + h) * (r + h)).energy - lj((r - h) * (r - h)).energy) /
        (2.0 * h);
    EXPECT_NEAR(lj(r * r).fr, -dudr / r, 1e-5) << "r=" << r;
  }
}

TEST(Potentials, Exp6ForceMatchesEnergyDerivative) {
  md::Exp6 pot(1000.0, 5.0, 1.0, 3.0);
  for (double r : {0.9, 1.2, 1.8, 2.5}) {
    const double h = 1e-6;
    const double dudr =
        (pot((r + h) * (r + h)).energy - pot((r - h) * (r - h)).energy) /
        (2.0 * h);
    EXPECT_NEAR(pot(r * r).fr, -dudr / r, 1e-4) << "r=" << r;
  }
}

TEST(Potentials, MartiniAddsCoulomb) {
  md::MartiniPair neutral(1.0, 1.0, 0.0, 3.0);
  md::MartiniPair charged(1.0, 1.0, 1.0, 3.0);
  EXPECT_GT(charged(4.0).energy, neutral(4.0).energy);
  EXPECT_NEAR(charged(9.0).energy, 0.0, 1e-12);  // shifted at cutoff
}

TEST(Neighbor, CellListMatchesBruteForce) {
  core::Rng rng(5);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 5, 0.8, 1.0, rng);
  auto ctx = core::make_seq();
  md::NeighborList a(1.1, 0.3), b(1.1, 0.3);
  a.build(ctx, p, box);
  b.build_n2(ctx, p, box);
  ASSERT_EQ(a.num_pairs(), b.num_pairs());
  for (std::size_t i = 0; i < p.n; ++i) {
    ASSERT_EQ(a.row_ptr()[i + 1] - a.row_ptr()[i],
              b.row_ptr()[i + 1] - b.row_ptr()[i]);
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      EXPECT_EQ(a.pair_j()[k], b.pair_j()[k]);
    }
  }
}

// A row-range build gives each row of its slice exactly the full list's
// row, and nothing outside it, with one cell a side (every neighbour offset
// aliased onto it), two and three or more. The full list itself matches
// the brute-force one row by row.
TEST(NeighborList, RowSliceMatchesFullListRows) {
  struct Case {
    std::size_t per_side;
    double rcut, skin;
    std::size_t ncell;
  };
  for (const Case c : {Case{3, 1.7, 0.3, 1}, Case{3, 1.2, 0.3, 2},
                       Case{3, 0.8, 0.2, 3}, Case{5, 1.0, 0.3, 4}}) {
    core::Rng rng(8);
    md::Particles p;
    md::Box box;
    md::init_lattice(p, box, c.per_side, 0.8, 1.0, rng);
    for (auto* v : {&p.x, &p.y, &p.z}) {
      for (double& x : *v) x = box.fold(x + rng.uniform(-0.2, 0.2));
    }
    ASSERT_EQ(static_cast<std::size_t>(box.length / (c.rcut + c.skin)),
              c.ncell);
    auto ctx = core::make_seq();
    md::NeighborList full(c.rcut, c.skin);
    full.build(ctx, p, box);
    auto row = [](const md::NeighborList& nl, std::size_t i) {
      const auto r = nl.row_ptr();
      const auto j = nl.pair_j();
      return std::vector<std::uint32_t>(j.begin() + r[i],
                                        j.begin() + r[i + 1]);
    };
    md::NeighborList brute(c.rcut, c.skin);
    brute.build_n2(ctx, p, box);
    for (std::size_t i = 0; i < p.n; ++i) {
      EXPECT_EQ(row(full, i), row(brute, i)) << "ncell=" << c.ncell;
    }
    std::vector<std::pair<std::size_t, std::size_t>> slices = {{5, 5}};
    for (std::size_t r = 0; r < 4; ++r) {
      slices.emplace_back(p.n * r / 4, p.n * (r + 1) / 4);  // uneven at 27
    }
    for (const auto& [lo, hi] : slices) {
      SCOPED_TRACE(testing::Message() << "ncell=" << c.ncell << " rows=["
                                      << lo << ", " << hi << ")");
      md::NeighborList part(c.rcut, c.skin);
      part.build(ctx, p, box, lo, hi);
      ASSERT_EQ(part.row_ptr().size(), p.n + 1);
      std::size_t pairs = 0;
      for (std::size_t i = 0; i < p.n; ++i) {
        if (i >= lo && i < hi) {
          EXPECT_EQ(row(part, i), row(full, i)) << "row " << i;
          pairs += row(full, i).size();
        } else {
          EXPECT_TRUE(row(part, i).empty()) << "row " << i;
        }
      }
      EXPECT_EQ(part.num_pairs(), pairs);
    }
  }
}

TEST(Neighbor, RebuildTriggeredByMotion) {
  core::Rng rng(6);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 4, 0.7, 1.0, rng);
  auto ctx = core::make_seq();
  md::NeighborList nl(1.1, 0.4);
  nl.build(ctx, p, box);
  EXPECT_FALSE(nl.needs_rebuild(p, box));
  p.x[0] = box.fold(p.x[0] + 0.3);  // beyond skin/2 = 0.2
  EXPECT_TRUE(nl.needs_rebuild(p, box));
}

TEST(Forces, NewtonThirdLawNetForceZero) {
  core::Rng rng(7);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 4, 0.8, 1.0, rng);
  auto ctx = core::make_seq();
  md::NeighborList nl(1.5, 0.3);
  nl.build(ctx, p, box);
  p.zero_forces();
  md::LennardJones lj(1.0, 1.0, 1.5);
  auto res = md::compute_pair_forces(ctx, p, box, nl, lj);
  EXPECT_NE(res.energy, 0.0);
  double fx = 0.0, fy = 0.0, fz = 0.0;
  for (std::size_t i = 0; i < p.n; ++i) {
    fx += p.fx[i];
    fy += p.fy[i];
    fz += p.fz[i];
  }
  EXPECT_NEAR(fx, 0.0, 1e-9);
  EXPECT_NEAR(fy, 0.0, 1e-9);
  EXPECT_NEAR(fz, 0.0, 1e-9);
}

TEST(Simulation, NveConservesEnergy) {
  core::Rng rng(11);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 5, 0.7, 0.8, rng);
  auto gpu = core::make_device();
  auto cpu = core::make_cpu();
  md::SimConfig cfg;
  cfg.dt = 0.002;
  md::Simulation<md::LennardJones> sim(gpu, cpu, std::move(p), box,
                                       md::LennardJones(1.0, 1.0, 2.5), cfg,
                                       0.4);
  const double e0 = sim.measure().total();
  double emax_drift = 0.0;
  for (int s = 0; s < 200; ++s) {
    const auto info = sim.step();
    emax_drift = std::max(emax_drift, std::abs(info.total() - e0));
  }
  EXPECT_LT(emax_drift / std::abs(e0), 5e-3);
}

TEST(Simulation, MomentumConserved) {
  core::Rng rng(12);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 4, 0.7, 1.0, rng);
  auto gpu = core::make_device();
  auto cpu = core::make_cpu();
  md::Simulation<md::LennardJones> sim(gpu, cpu, std::move(p), box,
                                       md::LennardJones(1.0, 1.0, 2.5), {});
  for (int s = 0; s < 100; ++s) sim.step();
  auto& part = sim.particles();
  double px = 0.0;
  for (std::size_t i = 0; i < part.n; ++i) px += part.mass[i] * part.vx[i];
  EXPECT_NEAR(px, 0.0, 1e-8);
}

TEST(Simulation, LangevinReachesTargetTemperature) {
  core::Rng rng(13);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 5, 0.6, 0.2, rng);  // start cold
  auto gpu = core::make_device();
  auto cpu = core::make_cpu();
  md::SimConfig cfg;
  cfg.thermostat = md::Thermostat::Langevin;
  cfg.temperature = 1.4;
  cfg.langevin_gamma = 2.0;
  md::Simulation<md::LennardJones> sim(gpu, cpu, std::move(p), box,
                                       md::LennardJones(1.0, 1.0, 2.5), cfg);
  double tavg = 0.0;
  int samples = 0;
  for (int s = 0; s < 800; ++s) {
    sim.step();
    if (s >= 400) {
      tavg += sim.particles().temperature();
      ++samples;
    }
  }
  tavg /= samples;
  EXPECT_NEAR(tavg, 1.4, 0.15);
}

TEST(Simulation, BerendsenDrivesPressureTowardTarget) {
  core::Rng rng(14);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 5, 0.9, 1.2, rng);  // dense: high pressure
  auto gpu = core::make_device();
  auto cpu = core::make_cpu();
  md::SimConfig cfg;
  cfg.thermostat = md::Thermostat::Langevin;
  cfg.temperature = 1.2;
  cfg.barostat = md::Barostat::Berendsen;
  cfg.pressure = 1.0;
  cfg.tau_p = 0.5;
  md::Simulation<md::LennardJones> sim(gpu, cpu, std::move(p), box,
                                       md::LennardJones(1.0, 1.0, 2.5), cfg);
  const double p_initial = sim.measure().pressure;
  double p_final = 0.0;
  int samples = 0;
  for (int s = 0; s < 600; ++s) {
    const auto info = sim.step();
    if (s >= 300) {
      p_final += info.pressure;
      ++samples;
    }
  }
  p_final /= samples;
  EXPECT_GT(p_initial, 2.0);  // started well above target
  EXPECT_LT(std::abs(p_final - 1.0), std::abs(p_initial - 1.0) * 0.5);
}

TEST(Simulation, ShakeHoldsBondLengths) {
  // Diatomic molecules with constrained bonds.
  md::Particles p(8);
  md::Box box;
  box.length = 10.0;
  core::Rng rng(15);
  std::vector<md::Constraint> cons;
  for (std::size_t m = 0; m < 4; ++m) {
    const double cx = rng.uniform(2.0, 8.0);
    const double cy = rng.uniform(2.0, 8.0);
    const double cz = rng.uniform(2.0, 8.0);
    p.x[2 * m] = cx;
    p.y[2 * m] = cy;
    p.z[2 * m] = cz;
    p.x[2 * m + 1] = cx + 0.5;
    p.y[2 * m + 1] = cy;
    p.z[2 * m + 1] = cz;
    for (std::size_t k = 0; k < 2; ++k) {
      p.vx[2 * m + k] = rng.normal(0.0, 0.5);
      p.vy[2 * m + k] = rng.normal(0.0, 0.5);
      p.vz[2 * m + k] = rng.normal(0.0, 0.5);
    }
    cons.push_back({std::uint32_t(2 * m), std::uint32_t(2 * m + 1), 0.5});
  }
  auto gpu = core::make_device();
  auto cpu = core::make_cpu();
  md::SimConfig cfg;
  cfg.dt = 0.002;
  md::Simulation<md::LennardJones> sim(gpu, cpu, std::move(p), box,
                                       md::LennardJones(1.0, 1.0, 2.5), cfg);
  sim.set_constraints(cons);
  for (int s = 0; s < 200; ++s) sim.step();
  auto& part = sim.particles();
  for (const auto& c : cons) {
    const double dx = box.wrap(part.x[c.i] - part.x[c.j]);
    const double dy = box.wrap(part.y[c.i] - part.y[c.j]);
    const double dz = box.wrap(part.z[c.i] - part.z[c.j]);
    EXPECT_NEAR(std::sqrt(dx * dx + dy * dy + dz * dz), 0.5, 1e-6);
  }
}

TEST(Simulation, BondedForcesPullTowardRestLength) {
  md::Particles p(2);
  md::Box box;
  box.length = 10.0;
  p.x[0] = 4.0;
  p.x[1] = 5.0;  // stretched vs r0 = 0.8
  p.y[0] = p.y[1] = 5.0;
  p.z[0] = p.z[1] = 5.0;
  auto ctx = core::make_seq();
  p.zero_forces();
  std::vector<md::Bond> bonds{{0, 1, 0.8, 100.0}};
  const double e = md::compute_bond_forces(ctx, p, box, bonds);
  EXPECT_NEAR(e, 0.5 * 100.0 * 0.04, 1e-12);
  EXPECT_GT(p.fx[0], 0.0);  // pulled toward the partner
  EXPECT_LT(p.fx[1], 0.0);
  EXPECT_NEAR(p.fx[0] + p.fx[1], 0.0, 1e-12);
}

TEST(Simulation, AngleForcesRestoreRestAngle) {
  md::Particles p(3);
  md::Box box;
  box.length = 10.0;
  // 90-degree angle, rest angle 180 degrees: force opens it up.
  p.x[0] = 4.0;
  p.y[0] = 5.0;
  p.x[1] = 5.0;
  p.y[1] = 5.0;
  p.x[2] = 5.0;
  p.y[2] = 4.0;
  p.z[0] = p.z[1] = p.z[2] = 5.0;
  auto ctx = core::make_seq();
  p.zero_forces();
  std::vector<md::Angle> angles{{0, 1, 2, M_PI, 10.0}};
  const double e = md::compute_angle_forces(ctx, p, box, angles);
  EXPECT_GT(e, 0.0);
  // Energy decreases along the force direction (finite-difference check).
  const double h = 1e-6;
  p.x[0] += h * p.fx[0];
  p.y[0] += h * p.fy[0];
  p.x[1] += h * p.fx[1];
  p.y[1] += h * p.fy[1];
  p.x[2] += h * p.fx[2];
  p.y[2] += h * p.fy[2];
  md::Particles q = p;
  q.zero_forces();
  const double e2 = md::compute_angle_forces(ctx, q, box, angles);
  EXPECT_LT(e2, e);
}

TEST(Simulation, SplitPlacementTransfersEveryStep) {
  core::Rng rng(16);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 4, 0.7, 1.0, rng);
  auto gpu1 = core::make_device();
  auto cpu1 = core::make_cpu();
  md::SimConfig all_gpu;
  all_gpu.placement = md::Placement::AllGpu;
  md::Simulation<md::LennardJones> sim1(gpu1, cpu1, p, box,
                                        md::LennardJones(1.0, 1.0, 2.5),
                                        all_gpu);
  auto gpu2 = core::make_device();
  auto cpu2 = core::make_cpu();
  md::SimConfig split;
  split.placement = md::Placement::Split;
  md::Simulation<md::LennardJones> sim2(gpu2, cpu2, p, box,
                                        md::LennardJones(1.0, 1.0, 2.5),
                                        split);
  const auto t1_before = gpu1.counters().transfers;
  const auto t2_before = gpu2.counters().transfers;
  for (int s = 0; s < 10; ++s) {
    sim1.step();
    sim2.step();
  }
  // ddcMD placement: no per-step transfers. GROMACS-like: 2 per step.
  EXPECT_EQ(gpu1.counters().transfers - t1_before, 0u);
  EXPECT_EQ(gpu2.counters().transfers - t2_before, 20u);
}

}  // namespace
