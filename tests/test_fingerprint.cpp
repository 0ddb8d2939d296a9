// Output fingerprints for the FEM/AMG, AMR, MD, wave, VBL and Cardioid
// paths: CRC32s of the field bytes the elliptic operator, the nonlinear
// diffusion driver, the CleverLeaf Euler solver, the MD drivers, the
// serial wave solver, the VBL beamline and the monodomain driver produce,
// plus the exact
// simulated clock (as a hexfloat) and counters, compared with committed
// constants. A speed or simplicity change that claims bitwise outputs must
// pass these unedited; a change that moves an output on purpose updates the
// constant and says why.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "amg/amg.hpp"
#include "amr/two_level.hpp"
#include "beamline/vbl.hpp"
#include "core/crc32.hpp"
#include "core/rng.hpp"
#include "fem/fem.hpp"
#include "la/la.hpp"
#include "md/md.hpp"
#include "md/replicated.hpp"
#include "md/survivable.hpp"
#include "net/log.hpp"
#include "reaction/monodomain.hpp"
#include "stencil/wave.hpp"

namespace {

using namespace coe;

std::string hexfloat(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

std::uint32_t crc_of(const la::CsrMatrix& m) {
  std::uint32_t c = core::crc32(m.values());
  c = core::crc32(m.colind().data(), m.colind().size_bytes(), c);
  return core::crc32(m.rowptr().data(), m.rowptr().size_bytes(), c);
}

struct OperatorPrint {
  std::size_t order;
  std::uint32_t diagonal, pa_apply, fa_apply, lor;
};

// A non-square mesh with a varying coefficient, so an index mix-up or a
// dropped kappa factor shows in every field.
OperatorPrint operator_print(std::size_t p) {
  fem::TensorMesh2D mesh(3, 2, p);
  fem::EllipticOperator pa(mesh, fem::Assembly::Partial, 0.3, 1.7);
  fem::EllipticOperator fa(mesh, fem::Assembly::Full, 0.3, 1.7);
  auto kappa = [](double x, double y) { return 1.0 + x + 0.5 * y * y; };
  pa.set_kappa(kappa);
  fa.set_kappa(kappa);

  core::Rng rng(11);
  std::vector<double> x(mesh.num_dofs()), ypa(x.size()), yfa(x.size());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  pa.apply(ctx, x, ypa);
  fa.apply(ctx, x, yfa);
  return {p, core::crc32(pa.assemble_diagonal()), core::crc32(ypa),
          core::crc32(yfa), crc_of(pa.assemble_lor())};
}

TEST(Fingerprint, EllipticOperatorFields) {
  const OperatorPrint want[] = {
      {1, 0x9f747317u, 0xb15e1b71u, 0x1e1a8936u, 0x4814a424u},
      {2, 0x98eaec37u, 0x8803bd9bu, 0xf8f9ad96u, 0xc5599571u},
      {4, 0x3d918908u, 0x4b9b936cu, 0x02a278b9u, 0x0ec9cd4eu},
      {8, 0xfbbf36c9u, 0x516cb527u, 0x5885336eu, 0x48cc90d9u},
  };
  for (const auto& w : want) {
    const auto got = operator_print(w.order);
    EXPECT_EQ(got.diagonal, w.diagonal) << "p=" << w.order;
    EXPECT_EQ(got.pa_apply, w.pa_apply) << "p=" << w.order;
    EXPECT_EQ(got.fa_apply, w.fa_apply) << "p=" << w.order;
    EXPECT_EQ(got.lor, w.lor) << "p=" << w.order;
  }
}

struct DiffusionPrint {
  std::uint32_t solution;
  std::string sim_seconds, flops, bytes;
  std::uint64_t launches;
  std::size_t cg_iterations, mass_cg_iterations, steps;
};

// One short implicit run of the Table 4 driver on the Device model:
// BDF + Newton-CG preconditioned by AMG on the LOR matrix or by Jacobi on
// assemble_diagonal().
DiffusionPrint diffusion_print(bool use_amg) {
  auto ctx = core::make_device();
  fem::DiffusionConfig cfg;
  cfg.nx = 3;
  cfg.order = 4;
  cfg.t_final = 0.002;
  cfg.use_amg = use_amg;
  fem::NonlinearDiffusion app(ctx, cfg);
  const auto rep = app.run();
  return {core::crc32(app.solution()),
          hexfloat(ctx.simulated_time()),
          hexfloat(ctx.counters().flops),
          hexfloat(ctx.counters().bytes),
          ctx.counters().launches,
          rep.cg_iterations,
          rep.mass_cg_iterations,
          rep.ode.steps};
}

void expect_print(const DiffusionPrint& got, const DiffusionPrint& want) {
  EXPECT_EQ(got.solution, want.solution);
  EXPECT_EQ(got.sim_seconds, want.sim_seconds);
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.launches, want.launches);
  EXPECT_EQ(got.cg_iterations, want.cg_iterations);
  EXPECT_EQ(got.mass_cg_iterations, want.mass_cg_iterations);
  EXPECT_EQ(got.steps, want.steps);
}

TEST(Fingerprint, NonlinearDiffusionWithAmg) {
  expect_print(diffusion_print(true),
               {0xe3aff3f7u, "0x1.0411dd77ac7a9p-4", "0x1.41bb4a8p+26",
                "0x1.0f342ap+27", 10549, 505, 204, 16});
}

TEST(Fingerprint, NonlinearDiffusionWithJacobi) {
  expect_print(diffusion_print(false),
               {0x9aad7d4du, "0x1.a36f43979c282p-5", "0x1.58ded2p+25",
                "0x1.52375p+24", 8528, 352, 204, 16});
}

// A 9-point operator on a non-square nx x ny grid whose coefficient varies
// by three decades and is anisotropic in one band, so the strength graph
// drops some connections and PMIS has real choices to make. Built here,
// not by the FEM assembly, so the pin covers only the AMG setup.
la::CsrMatrix varying_nine_point(std::size_t nx, std::size_t ny) {
  auto id = [ny](std::size_t i, std::size_t j) { return i * ny + j; };
  auto kappa = [&](std::size_t i, std::size_t j) {
    return std::pow(10.0, 3.0 * double((i * 7 + j * 3) % 11) / 10.0);
  };
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      const std::size_t r = id(i, j);
      double diag = 1e-3;
      for (int di = -1; di <= 1; ++di) {
        for (int dj = -1; dj <= 1; ++dj) {
          if (di == 0 && dj == 0) continue;
          const auto ni = std::ptrdiff_t(i) + di, nj = std::ptrdiff_t(j) + dj;
          if (ni < 0 || nj < 0 || ni >= std::ptrdiff_t(nx) ||
              nj >= std::ptrdiff_t(ny)) {
            continue;
          }
          const auto ci = std::size_t(ni), cj = std::size_t(nj);
          // Symmetric edge weight: mean coefficient of the two ends, the
          // corner couplings a quarter of the face ones, x stronger than y
          // in the band 5 <= i < 12.
          double w = 0.5 * (kappa(i, j) + kappa(ci, cj));
          if (di != 0 && dj != 0) w *= 0.25;
          if (dj == 0 && i >= 5 && i < 12 && ci >= 5 && ci < 12) w *= 20.0;
          t.push_back({r, id(ci, cj), -w});
          diag += w;
        }
      }
      t.push_back({r, r, diag});
    }
  }
  return la::CsrMatrix::from_triplets(nx * ny, nx * ny, std::move(t));
}

struct AmgLevelPrint {
  std::size_t rows, nnz;
  std::uint32_t a, p, r, cf;
};

// Per level: the operator, P and R, and the C/F split PMIS makes on the
// level's strength graph with the default options (the coarsest level,
// which is not coarsened, pins cf = 0).
TEST(Fingerprint, BoomerAmgHierarchy) {
  const AmgLevelPrint want[] = {
      {1271, 11011, 0xef32cb14u, 0x60021926u, 0xd28ebc2au, 0xaed4b36eu},
      {280, 2130, 0xd47a1c28u, 0xbcb783e6u, 0xa2021a24u, 0x7b06b690u},
      {81, 723, 0x6e36032cu, 0x313eda5fu, 0xf0ceaf5eu, 0xc190978cu},
      {19, 137, 0x8809ef59u, 0x00000000u, 0x00000000u, 0x00000000u},
  };
  const std::uint32_t want_vcycle = 0x69e189edu;

  amg::BoomerAmg solver(varying_nine_point(41, 31), {});
  ASSERT_EQ(solver.num_levels(), std::size(want));
  for (std::size_t l = 0; l < solver.num_levels(); ++l) {
    const auto& lev = solver.level(l);
    std::uint32_t cf = 0;
    if (l + 1 < solver.num_levels()) {
      const auto split =
          amg::pmis_coarsen(amg::strength_graph(lev.a, 0.25));
      cf = core::crc32(split.data(), split.size() * sizeof(split[0]));
    }
    EXPECT_EQ(lev.a.rows(), want[l].rows) << "level " << l;
    EXPECT_EQ(lev.a.nnz(), want[l].nnz) << "level " << l;
    EXPECT_EQ(crc_of(lev.a), want[l].a) << "level " << l;
    EXPECT_EQ(crc_of(lev.p), want[l].p) << "level " << l;
    EXPECT_EQ(crc_of(lev.r), want[l].r) << "level " << l;
    EXPECT_EQ(cf, want[l].cf) << "level " << l;
  }

  core::Rng rng(5);
  std::vector<double> r(solver.level(0).a.rows()), z(r.size());
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  solver.apply(ctx, r, z);
  EXPECT_EQ(core::crc32(z), want_vcycle);
}

// CRC32 of every patch's four conserved fields over the whole ghosted box,
// in storage order (i outer, j inner), chained patch by patch.
std::uint32_t crc_of(const amr::PatchLevel& level, std::uint32_t seed = 0) {
  std::vector<double> v;
  for (std::size_t p = 0; p < level.num_patches(); ++p) {
    const auto& patch = level.patch(p);
    const amr::Box gb = patch.box().grown(patch.ghost());
    for (const char* name : {amr::EulerSolver::kRho, amr::EulerSolver::kMx,
                             amr::EulerSolver::kMy, amr::EulerSolver::kE}) {
      const auto& f = patch.field(name);
      v.clear();
      for (std::int64_t i = gb.ilo; i <= gb.ihi; ++i) {
        for (std::int64_t j = gb.jlo; j <= gb.jhi; ++j) v.push_back(f.at(i, j));
      }
      seed = core::crc32(v, seed);
    }
  }
  return seed;
}

struct AmrPrint {
  std::uint32_t dts, fields;
  std::string sim_seconds, flops, bytes;
  std::uint64_t launches;
};

AmrPrint amr_print(const core::ExecContext& ctx, const std::vector<double>& dts,
                   std::uint32_t fields) {
  return {core::crc32(dts),
          fields,
          hexfloat(ctx.simulated_time()),
          hexfloat(ctx.counters().flops),
          hexfloat(ctx.counters().bytes),
          ctx.counters().launches};
}

void expect_print(const AmrPrint& got, const AmrPrint& want) {
  EXPECT_EQ(got.dts, want.dts);
  EXPECT_EQ(got.fields, want.fields);
  EXPECT_EQ(got.sim_seconds, want.sim_seconds);
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.launches, want.launches);
}

// A Sod tube on an outflow level cut unevenly into four patches, with a
// transverse velocity that varies along j, so the y-fluxes, `my` and every
// patch edge (ghost exchange, wall clamping, corners) carry real data.
TEST(Fingerprint, EulerSodFourPatchesOutflow) {
  core::MemoryPool pool;
  amr::PatchLevel level(pool, amr::Box{0, 0, 47, 39}, 2,
                        amr::BoundaryKind::Outflow);
  level.add_patch(amr::Box{0, 0, 19, 12});
  level.add_patch(amr::Box{20, 0, 47, 12});
  level.add_patch(amr::Box{0, 13, 19, 39});
  level.add_patch(amr::Box{20, 13, 47, 39});
  auto ctx = core::make_device();
  amr::EulerConfig cfg;
  cfg.dx = 1.0 / 48.0;
  cfg.dy = 1.0 / 40.0;
  amr::EulerSolver solver(ctx, level, cfg);
  solver.init([](std::int64_t i, std::int64_t j) {
    amr::PrimState s = amr::sod_state(i, 24);
    s.u = 0.05;
    s.v = 0.25 - 0.01 * double(j);
    return s;
  });
  std::vector<double> dts;
  for (int s = 0; s < 30; ++s) {
    dts.push_back(solver.compute_dt());
    solver.step(dts.back());
  }
  EXPECT_TRUE(std::isfinite(solver.total_energy()));
  EXPECT_EQ(hexfloat(solver.time()), "0x1.04ed93bdc16fdp-3");
  expect_print(amr_print(ctx, dts, crc_of(level)),
               {0x164c298fu, 0x24cbed5fu, "0x1.86e8bced5bb9p-11",
                "0x1.82b8p+23", "0x1.194p+24", 120});
}

// Two levels on a periodic domain: coarse and fine levels of two patches
// each, so a step runs prolong_into (from either coarse patch), the fine
// sibling exchange and restrict_onto.
TEST(Fingerprint, TwoLevelEulerPeriodic) {
  core::MemoryPool pool;
  amr::PatchLevel coarse(pool, amr::Box{0, 0, 15, 15}, 2,
                         amr::BoundaryKind::Periodic);
  coarse.add_patch(amr::Box{0, 0, 7, 15});
  coarse.add_patch(amr::Box{8, 0, 15, 15});
  amr::PatchLevel fine(pool, amr::Box{0, 0, 31, 31}, 2,
                       amr::BoundaryKind::Periodic);
  fine.add_patch(amr::Box{8, 8, 15, 23});
  fine.add_patch(amr::Box{16, 8, 23, 23});
  auto ctx = core::make_device();
  amr::EulerConfig cfg;
  cfg.dx = cfg.dy = 1.0 / 16.0;
  amr::TwoLevelEuler sim(ctx, coarse, fine, 2, cfg);
  sim.init([](double x, double y) {
    amr::PrimState s;
    s.rho = 1.0 + 0.5 / (1.0 + (x - 8.0) * (x - 8.0) + (y - 7.0) * (y - 7.0));
    s.u = 0.3;
    s.v = -0.2;
    s.p = s.rho;
    return s;
  });
  std::vector<double> dts;
  for (int s = 0; s < 10; ++s) {
    dts.push_back(sim.compute_dt());
    sim.step(dts.back());
  }
  EXPECT_TRUE(std::isfinite(sim.coarse_solver().total_energy()));
  EXPECT_TRUE(std::isfinite(sim.fine_solver().total_energy()));
  EXPECT_EQ(hexfloat(sim.time()), "0x1.4d956ae7e9633p-3");
  expect_print(amr_print(ctx, dts, crc_of(fine, crc_of(coarse))),
               {0x952315eeu, 0xcbad853cu, "0x1.7d11061b0578p-12",
                "0x1.9c8p+20", "0x1.2cp+21", 60});
}

struct ReplicatedPrint {
  int ranks;
  std::size_t per_side;
  std::string potential, kinetic, virial, timeline_s;
  std::size_t messages;
  double bytes;
  std::size_t reductions;
};

// Replicated-data MD with its traffic repriced on Sierra. per_side 5 gives
// a box narrower than three cutoffs (one cell, every neighbour offset
// aliased onto it); per_side 9 gives three cells a side. Both rebuild the
// neighbor list during the run.
TEST(Fingerprint, ReplicatedMd) {
  const ReplicatedPrint want[] = {
      {1, 5, "-0x1.fc3f9f65f8f64p+8", "0x1.1755123a0aab7p+8",
       "0x1.52f6daeaadb49p+10", "0x1.17f7987d64daap-9", 0, 0.0, 21},
      {3, 5, "-0x1.fc3f9f65f8f65p+8", "0x1.1755123a0aab7p+8",
       "0x1.52f6daeaadb43p+10", "0x1.409dd4286b3cdp-10", 84, 253344.0, 63},
      {4, 5, "-0x1.fc3f9f65f8f62p+8", "0x1.1755123a0aab7p+8",
       "0x1.52f6daeaadb4p+10", "0x1.0005811f6c72p-10", 168, 506688.0, 84},
      {1, 9, "-0x1.6c1f8b20ffcaep+11", "0x1.9106030dc0afdp+10",
       "0x1.0b3d2b83aaef4p+13", "0x1.987815ed257d8p-7", 0, 0.0, 21},
      {3, 9, "-0x1.6c1f8b20ffcadp+11", "0x1.9106030dc0afdp+10",
       "0x1.0b3d2b83aaee6p+13", "0x1.7cb0e71ae3c5ap-8", 84, 1471008.0, 63},
      {4, 9, "-0x1.6c1f8b20ffcacp+11", "0x1.9106030dc0afdp+10",
       "0x1.0b3d2b83aaee6p+13", "0x1.36de446565328p-8", 168, 2942016.0, 84},
  };
  for (const auto& w : want) {
    SCOPED_TRACE(testing::Message()
                 << "ranks=" << w.ranks << " per_side=" << w.per_side);
    const auto cluster = hsim::clusters::sierra(w.ranks);
    net::NetLog log;
    md::ReplicatedConfig cfg;
    cfg.per_side = w.per_side;
    cfg.steps = 20;
    cfg.log = &log;
    cfg.cluster = &cluster;
    const auto r = md::replicated_md_run(w.ranks, cfg);
    EXPECT_EQ(hexfloat(r.potential), w.potential);
    EXPECT_EQ(hexfloat(r.kinetic), w.kinetic);
    EXPECT_EQ(hexfloat(r.virial), w.virial);
    EXPECT_EQ(hexfloat(r.modeled.timeline_s), w.timeline_s);
    EXPECT_EQ(r.net.messages, w.messages);
    EXPECT_EQ(r.net.bytes, w.bytes);
    EXPECT_EQ(r.net.reductions, w.reductions);
  }
}

// The single-context MD driver with a Langevin thermostat and a Berendsen
// barostat; the small skin forces neighbor-list rebuilds inside the run.
TEST(Fingerprint, MdSimulation) {
  core::Rng rng(31);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 5, 0.8, 1.2, rng);
  auto gpu = core::make_device();
  auto cpu = core::make_cpu();
  md::SimConfig cfg;
  cfg.thermostat = md::Thermostat::Langevin;
  cfg.barostat = md::Barostat::Berendsen;
  md::Simulation<md::LennardJones> sim(gpu, cpu, std::move(p), box,
                                       md::LennardJones(1.0, 1.0, 2.5), cfg,
                                       0.05);
  md::StepInfo info;
  for (int s = 0; s < 30; ++s) info = sim.step();
  const auto& q = sim.particles();
  std::uint32_t c = core::crc32(q.x);
  for (const auto* v : {&q.y, &q.z, &q.vx, &q.vy, &q.vz}) {
    c = core::crc32(*v, c);
  }
  EXPECT_EQ(c, 0x5abc28b6u);
  EXPECT_EQ(hexfloat(info.potential), "-0x1.dcccab204337ap+8");
  EXPECT_EQ(hexfloat(info.kinetic), "0x1.04026893ba911p+8");
  EXPECT_EQ(hexfloat(info.virial), "0x1.a5daaa9213344p+10");
  EXPECT_EQ(hexfloat(gpu.simulated_time()), "0x1.075e56430779ep-10");
  EXPECT_EQ(gpu.counters().launches, 161u);
}

// Fault-free survivable MD on the phoenix part tree. buddy_bytes is the
// size of the replicated checkpoints: replica state plus the neighbor-list
// rows of the part's own slice.
TEST(Fingerprint, SurvivableMd) {
  struct Want {
    int workers;
    std::string potential, kinetic, virial;
    double buddy_bytes;
  };
  const Want want[] = {
      {3, "-0x1.e611949822785p+8", "0x1.01227daa02557p+8",
       "0x1.a388c06af33bep+10", 237000.0},
      {4, "-0x1.e611949822783p+8", "0x1.01227daa02557p+8",
       "0x1.a388c06af33bcp+10", 276240.0},
  };
  for (const auto& w : want) {
    SCOPED_TRACE(testing::Message() << "workers=" << w.workers);
    md::SurvivableMdConfig cfg;
    cfg.per_side = 5;
    cfg.steps = 12;
    cfg.workers = w.workers;
    cfg.mpi.timeout_seconds = 5.0;
    const auto r = md::survivable_md_run(cfg);
    EXPECT_EQ(r.report.stats.kills, 0u);
    EXPECT_EQ(hexfloat(r.potential), w.potential);
    EXPECT_EQ(hexfloat(r.kinetic), w.kinetic);
    EXPECT_EQ(hexfloat(r.virial), w.virial);
    EXPECT_EQ(r.report.stats.buddy_bytes, w.buddy_bytes);
  }
}

struct ClockPrint {
  std::string sim_seconds, flops, bytes;
  std::uint64_t launches;
};

ClockPrint clock_print(const core::ExecContext& ctx) {
  return {hexfloat(ctx.simulated_time()), hexfloat(ctx.counters().flops),
          hexfloat(ctx.counters().bytes), ctx.counters().launches};
}

void expect_print(const ClockPrint& got, const ClockPrint& want) {
  EXPECT_EQ(got.sim_seconds, want.sim_seconds);
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.launches, want.launches);
}

// The serial wave solver on a non-cubic grid in a heterogeneous medium,
// with a host-computed point source whose upload rides a side stream and
// the shake map on its own stream. Fused, the Laplacian and update run as
// one fused3 launch; unfused, as two forall3 launches. The shake map runs
// through forall2 either way.
TEST(Fingerprint, WaveSolverStreamedHeterogeneous) {
  struct Want {
    bool fused;
    std::uint32_t fields;
    ClockPrint clock;
  };
  const Want want[] = {
      {true, 0x96fd56d0u,
       {"0x1.455818646f5fep-12", "0x1.c07c8p+19", "0x1.7fef8p+21", 75}},
      {false, 0x96fd56d0u,
       {"0x1.e378297beed91p-12", "0x1.c07c8p+19", "0x1.c63f8p+21", 100}},
  };
  for (const auto& w : want) {
    SCOPED_TRACE(testing::Message() << "fused=" << w.fused);
    auto ctx = core::make_device();
    stencil::WaveOptions opts;
    opts.fused = w.fused;
    opts.use_streams = true;
    opts.forcing_on_device = false;
    stencil::WaveSolver wave(ctx, 12, 10, 8, 1.0, 1.0, opts);
    wave.set_wave_speed([](double x, double y, double z) {
      return 1.0 + 0.5 * x + 0.25 * y * z;
    });
    const double dt = wave.stable_dt();
    wave.set_initial(
        [](double x, double y, double z) {
          const double r2 = (x - 0.4) * (x - 0.4) + (y - 0.6) * (y - 0.6) +
                            (z - 0.5) * (z - 0.5);
          return std::exp(-40.0 * r2);
        },
        [](double, double, double) { return 0.0; }, dt);
    wave.add_source({3, 7, 2, 1.0, 10.0, 0.1});
    for (int s = 0; s < 25; ++s) wave.step(dt);
    std::uint32_t c = 0;
    for (const auto& [name, f] : wave.sdc_targets()) c = core::crc32(f, c);
    c = core::crc32(wave.shake_map(), c);
    EXPECT_EQ(c, w.fields);
    expect_print(clock_print(ctx), w.clock);
  }
}

// VBL split-step propagation with a phase defect and saturating gain, so
// every forall2 kernel of the beamline (beam, defect, diffraction phase,
// amplifier) runs.
TEST(Fingerprint, VblPropagation) {
  auto ctx = core::make_device();
  beamline::VblConfig cfg;
  cfg.n = 32;
  cfg.dz = 0.05;
  cfg.gain0 = 0.5;
  beamline::Beamline beam(ctx, cfg);
  beam.set_gaussian(0.002);
  beam.add_phase_defect(0.004, 0.006, 0.0005, 0.8);
  beam.propagate(0.5);
  const auto& e = beam.field();
  EXPECT_EQ(core::crc32(e.data(), e.size() * sizeof(e[0])), 0x306c3680u);
  expect_print(clock_print(ctx),
               {"0x1.0800c6b535f65p-7", "0x1.408p+20", "0x1.ap+21", 1342});
}

// The Cardioid monodomain driver on a non-square sheet: diffusion runs
// through forall2 on the device (AllGpu) or the host (SplitCpuDiffusion),
// and the voltage update runs fused into the reaction kernel or beside it.
TEST(Fingerprint, Monodomain) {
  struct Want {
    reaction::TissuePlacement placement;
    bool fuse;
    reaction::RateKind rates;
    std::uint32_t cells;
    ClockPrint device, host;
  };
  const Want want[] = {
      {reaction::TissuePlacement::AllGpu, true, reaction::RateKind::Rational,
       0xf893a7d7u,
       {"0x1.3d9f7f65b732dp-9", "0x1.0923p+24", "0x1.77p+23", 400},
       {"0x0p+0", "0x0p+0", "0x0p+0", 0}},
      {reaction::TissuePlacement::SplitCpuDiffusion, false,
       reaction::RateKind::Libm, 0xab313af5u,
       {"0x1.3d2914f20b93ep-8", "0x1.bbd9p+24", "0x1.194p+23", 400},
       {"0x1.5dd0fbb6c80ebp-16", "0x1.77p+19", "0x1.194p+22", 200}},
  };
  for (const auto& w : want) {
    SCOPED_TRACE(testing::Message() << "fuse=" << w.fuse);
    auto gpu = core::make_device();
    auto cpu = core::make_cpu();
    reaction::TissueConfig cfg;
    cfg.nx = 24;
    cfg.ny = 20;
    cfg.rates = w.rates;
    cfg.placement = w.placement;
    cfg.fuse_reaction = w.fuse;
    reaction::Monodomain tissue(gpu, cpu, cfg);
    tissue.stimulate(0, 4, 0, 6, 40.0, 0.5);
    tissue.run(2.0);
    EXPECT_EQ(core::crc32(tissue.state_data()), w.cells);
    expect_print(clock_print(gpu), w.device);
    expect_print(clock_print(cpu), w.host);
  }
}

}  // namespace
