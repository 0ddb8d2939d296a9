// Output fingerprints for the FEM/AMG path: CRC32s of the field bytes the
// elliptic operator and the nonlinear diffusion driver produce, plus the
// exact simulated clock (as a hexfloat) and counters, compared with
// committed constants. A speed or simplicity change that claims bitwise
// outputs must pass these unedited; a change that moves an output on
// purpose updates the constant and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/crc32.hpp"
#include "core/rng.hpp"
#include "fem/fem.hpp"
#include "la/la.hpp"

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
      {1, 0x9f747317u, 0xb15e1b71u, 0x1e1a8936u, 0x7471c8c9u},
      {2, 0x98eaec37u, 0x8803bd9bu, 0xf8f9ad96u, 0x5819073bu},
      {4, 0x3d918908u, 0x4b9b936cu, 0x02a278b9u, 0x8426da87u},
      {8, 0xfbbf36c9u, 0x516cb527u, 0x5885336eu, 0xe32a2745u},
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

}  // namespace
