// Tests for the mini-MFEM module: basis machinery, mesh indexing, operator
// correctness (partial vs full assembly), LOR spectral equivalence, and the
// coupled nonlinear diffusion driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "fem/fem.hpp"
#include "la/la.hpp"

namespace {

using namespace coe;

TEST(Basis, GaussLegendreIntegratesPolynomialsExactly) {
  for (std::size_t n = 1; n <= 8; ++n) {
    auto q = fem::gauss_legendre(n);
    // Exact for degree 2n-1: check x^k for k = 0..2n-1.
    for (std::size_t k = 0; k < 2 * n; ++k) {
      double integral = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        integral += q.weights[i] * std::pow(q.points[i], double(k));
      }
      const double exact = (k % 2 == 0) ? 2.0 / double(k + 1) : 0.0;
      EXPECT_NEAR(integral, exact, 1e-12) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Basis, GllNodesSymmetricAndOrdered) {
  for (std::size_t p = 1; p <= 8; ++p) {
    auto x = fem::gll_nodes(p);
    ASSERT_EQ(x.size(), p + 1);
    EXPECT_DOUBLE_EQ(x.front(), -1.0);
    EXPECT_DOUBLE_EQ(x.back(), 1.0);
    for (std::size_t i = 1; i < x.size(); ++i) EXPECT_GT(x[i], x[i - 1]);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], -x[p - i], 1e-13);
    }
  }
}

TEST(Basis, LagrangeIsInterpolatory) {
  auto nodes = fem::gll_nodes(4);
  auto tab = fem::tabulate_lagrange(nodes, nodes);
  for (std::size_t q = 0; q < nodes.size(); ++q) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_NEAR(tab.b(q, i), q == i ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(Basis, PartitionOfUnityAndDerivativeSumZero) {
  auto e = fem::make_element(5);
  for (std::size_t q = 0; q < e.quad.points.size(); ++q) {
    double sum_b = 0.0, sum_g = 0.0;
    for (std::size_t i = 0; i <= 5; ++i) {
      sum_b += e.tab.b(q, i);
      sum_g += e.tab.g(q, i);
    }
    EXPECT_NEAR(sum_b, 1.0, 1e-12);
    EXPECT_NEAR(sum_g, 0.0, 1e-10);
  }
}

TEST(Mesh, DofCountsAndBoundary) {
  fem::TensorMesh2D mesh(4, 3, 2);
  EXPECT_EQ(mesh.ndof_x(), 9u);
  EXPECT_EQ(mesh.ndof_y(), 7u);
  EXPECT_EQ(mesh.num_dofs(), 63u);
  // Boundary dof count: perimeter of the 9x7 lattice.
  EXPECT_EQ(mesh.boundary_dofs().size(), 2u * 9 + 2u * 7 - 4);
  // Shared dof between adjacent elements.
  EXPECT_EQ(mesh.elem_dof(0, 0, 2, 0), mesh.elem_dof(1, 0, 0, 0));
}

TEST(Mesh, RejectsOrderZero) {
  EXPECT_THROW(fem::TensorMesh2D(3, 2, 0), std::invalid_argument);
  EXPECT_THROW(fem::TensorMesh2D({0.0, 0.5, 1.0}, {0.0, 1.0}, 0),
               std::invalid_argument);
  EXPECT_NO_THROW(fem::TensorMesh2D({0.0, 0.5, 1.0}, {0.0, 1.0}, 1));
}

TEST(Mesh, CoordinatesSpanUnitSquare) {
  fem::TensorMesh2D mesh(3, 3, 4);
  EXPECT_DOUBLE_EQ(mesh.dof_x(0), 0.0);
  EXPECT_DOUBLE_EQ(mesh.dof_x(mesh.ndof_x() - 1), 1.0);
  for (std::size_t i = 1; i < mesh.ndof_x(); ++i) {
    EXPECT_GT(mesh.dof_x(i), mesh.dof_x(i - 1));
  }
}

class AssemblyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(AssemblyEquivalence, PartialMatchesFull) {
  const auto [nx, p] = GetParam();
  fem::TensorMesh2D mesh(nx, nx, p);
  fem::EllipticOperator pa(mesh, fem::Assembly::Partial, 0.3, 1.7);
  fem::EllipticOperator fa(mesh, fem::Assembly::Full, 0.3, 1.7);
  auto kappa = [](double x, double y) { return 1.0 + x + 0.5 * y * y; };
  pa.set_kappa(kappa);
  fa.set_kappa(kappa);

  core::Rng rng(5);
  std::vector<double> x(mesh.num_dofs()), y1(mesh.num_dofs()),
      y2(mesh.num_dofs());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  pa.apply(ctx, x, y1);
  fa.apply(ctx, x, y2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-10) << "dof " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshOrder, AssemblyEquivalence,
    ::testing::Values(std::make_tuple(3, 1), std::make_tuple(3, 2),
                      std::make_tuple(2, 4), std::make_tuple(4, 3),
                      std::make_tuple(2, 6)));

// One case per order-specialised partial-assembly kernel.
class EveryOrder : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EveryOrder, PartialMatchesFull) {
  const std::size_t p = GetParam();
  fem::TensorMesh2D mesh(2, 3, p);
  fem::EllipticOperator pa(mesh, fem::Assembly::Partial, 0.3, 1.7);
  fem::EllipticOperator fa(mesh, fem::Assembly::Full, 0.3, 1.7);
  auto kappa = [](double x, double y) { return 1.0 + x + 0.5 * y * y; };
  pa.set_kappa(kappa);
  fa.set_kappa(kappa);

  core::Rng rng(7);
  std::vector<double> x(mesh.num_dofs()), y1(mesh.num_dofs()),
      y2(mesh.num_dofs());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  pa.apply(ctx, x, y1);
  fa.apply(ctx, x, y2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-12) << "p=" << p << " dof " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders1To10, EveryOrder,
                         ::testing::Range<std::size_t>(1, 11));

TEST(Elliptic, RejectsOrdersOutsideKernelBound) {
  // Order 0 is rejected by the mesh, before any operator sees it.
  EXPECT_THROW(fem::TensorMesh2D(2, 2, 0), std::invalid_argument);
  fem::TensorMesh2D p10(1, 1, 10), p11(1, 1, 11);
  EXPECT_THROW(fem::EllipticOperator(p11, fem::Assembly::Full, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_NO_THROW(fem::EllipticOperator(p10, fem::Assembly::Partial, 1.0, 1.0));
}

TEST(Elliptic, MassMatrixIntegratesConstants) {
  // For u = 1: (M u)_i sums row i; total = integral of 1 over the domain.
  fem::TensorMesh2D mesh(4, 4, 3);
  fem::EllipticOperator mass(mesh, fem::Assembly::Partial, 1.0, 0.0);
  std::vector<double> ones(mesh.num_dofs(), 1.0), y(mesh.num_dofs());
  auto ctx = core::make_seq();
  mass.apply(ctx, ones, y);
  double total = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (!mesh.is_boundary(i)) total += y[i];
  }
  // Interior rows of M*1 sum to 1 - (boundary row contributions); instead
  // check the full bilinear form 1' M 1 by including boundary rows, which
  // apply() overwrote with x[b] = 1 each; subtract those.
  double full = std::accumulate(y.begin(), y.end(), 0.0);
  full -= static_cast<double>(mesh.boundary_dofs().size());
  // full now misses the true boundary row sums; use the assembled matrix
  // without Dirichlet to verify instead on a pure-Neumann style check:
  // sum of all element mass matrices' entries = area = 1.
  (void)total;
  fem::EllipticOperator fa(mesh, fem::Assembly::Full, 1.0, 0.0);
  // Sum over interior rows/cols only is < 1; so verify with PA on the
  // interior-only quadratic form: 1'M1 over interior block.
  std::vector<double> xin(mesh.num_dofs(), 0.0);
  for (std::size_t i = 0; i < xin.size(); ++i) {
    xin[i] = mesh.is_boundary(i) ? 0.0 : 1.0;
  }
  std::vector<double> yin(mesh.num_dofs());
  mass.apply(ctx, xin, yin);
  double quad_form = 0.0;
  for (std::size_t i = 0; i < yin.size(); ++i) {
    if (!mesh.is_boundary(i)) quad_form += yin[i];
  }
  // Interior bump integral: strictly between 0 and the domain area.
  EXPECT_GT(quad_form, 0.3);
  EXPECT_LT(quad_form, 1.0);
}

TEST(Elliptic, StiffnessAnnihilatesConstants) {
  // grad(const) = 0: rows whose stencil does not touch the (column-
  // eliminated) boundary must vanish on a constant field.
  const std::size_t nx = 4, p = 4;
  fem::TensorMesh2D mesh(nx, nx, p);
  fem::EllipticOperator stiff(mesh, fem::Assembly::Partial, 0.0, 1.0);
  std::vector<double> ones(mesh.num_dofs(), 1.0), y(mesh.num_dofs());
  auto ctx = core::make_seq();
  stiff.apply(ctx, ones, y);
  std::size_t checked = 0;
  for (std::size_t ix = p + 1; ix < (nx - 1) * p; ++ix) {
    for (std::size_t iy = p + 1; iy < (nx - 1) * p; ++iy) {
      EXPECT_NEAR(y[mesh.dof(ix, iy)], 0.0, 1e-10);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(Elliptic, GalerkinSolveConvergesWithOrder) {
  // Solve -lap u = f with u* = sin(pi x) sin(pi y): higher order on the
  // same mesh must reduce the nodal error dramatically.
  auto nodal_error = [&](std::size_t p) {
    fem::TensorMesh2D mesh(4, 4, p);
    fem::EllipticOperator op(mesh, fem::Assembly::Full, 0.0, 1.0);
    fem::EllipticOperator mass(mesh, fem::Assembly::Full, 1.0, 0.0);
    const std::size_t n = mesh.num_dofs();
    // f = 2 pi^2 sin(pi x) sin(pi y): build load vector b = M f_nodal
    // (good enough at these orders).
    std::vector<double> fn(n), b(n), u(n, 0.0);
    for (std::size_t ix = 0; ix < mesh.ndof_x(); ++ix) {
      for (std::size_t iy = 0; iy < mesh.ndof_y(); ++iy) {
        fn[mesh.dof(ix, iy)] = 2.0 * M_PI * M_PI *
                               std::sin(M_PI * mesh.dof_x(ix)) *
                               std::sin(M_PI * mesh.dof_y(iy));
      }
    }
    auto ctx = core::make_seq();
    mass.apply(ctx, fn, b);
    for (std::size_t bd : mesh.boundary_dofs()) b[bd] = 0.0;
    la::JacobiPreconditioner prec(op.assembled_matrix());
    la::cg(ctx, op, prec, b, u, {.max_iters = 4000, .rel_tol = 1e-12});
    double err = 0.0;
    for (std::size_t ix = 0; ix < mesh.ndof_x(); ++ix) {
      for (std::size_t iy = 0; iy < mesh.ndof_y(); ++iy) {
        const double exact =
            std::sin(M_PI * mesh.dof_x(ix)) * std::sin(M_PI * mesh.dof_y(iy));
        err = std::max(err, std::abs(u[mesh.dof(ix, iy)] - exact));
      }
    }
    return err;
  };
  const double e1 = nodal_error(1);
  const double e3 = nodal_error(3);
  EXPECT_LT(e3, e1 / 50.0);
}

TEST(Elliptic, DiagonalMatchesAssembled) {
  fem::TensorMesh2D mesh(3, 3, 3);
  fem::EllipticOperator op(mesh, fem::Assembly::Full, 0.5, 2.0);
  op.set_kappa([](double x, double y) { return 1.0 + x * y; });
  auto diag_free = op.assemble_diagonal();
  auto diag_csr = op.assembled_matrix().diagonal();
  for (std::size_t i = 0; i < diag_free.size(); ++i) {
    if (mesh.is_boundary(i)) {
      EXPECT_DOUBLE_EQ(diag_csr[i], 1.0);
    } else {
      EXPECT_NEAR(diag_free[i], diag_csr[i], 1e-10);
    }
  }
}

TEST(Lor, SpectrallyEquivalentPreconditioner) {
  // CG on the high-order operator preconditioned by AMG-on-LOR must
  // converge in O(10) iterations regardless of order.
  for (std::size_t p : {2, 4}) {
    fem::TensorMesh2D mesh(6, 6, p);
    fem::EllipticOperator op(mesh, fem::Assembly::Partial, 1.0, 1.0);
    auto lor = op.assemble_lor();
    EXPECT_EQ(lor.rows(), mesh.num_dofs());
    amg::BoomerAmg prec(lor, {});
    std::vector<double> b(mesh.num_dofs(), 0.0), x(mesh.num_dofs(), 0.0);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = mesh.is_boundary(i) ? 0.0 : 1.0;
    }
    auto ctx = core::make_seq();
    auto res = la::cg(ctx, op, prec, b, x, {.max_iters = 200, .rel_tol = 1e-8});
    ASSERT_TRUE(res.converged) << "p=" << p;
    EXPECT_LT(res.iterations, 30u) << "p=" << p;
  }
}

TEST(Lor, OrderOneLorEqualsAssembledOperator) {
  // At p = 1 the LOR mesh is the mesh itself, so the LOR matrix must equal
  // the assembled high-order matrix entry for entry (kappa constant).
  fem::TensorMesh2D mesh(5, 4, 1);
  fem::EllipticOperator op(mesh, fem::Assembly::Full, 0.7, 1.3);
  auto lor = op.assemble_lor();
  const auto& a = op.assembled_matrix();
  ASSERT_EQ(lor.rows(), a.rows());
  ASSERT_EQ(lor.nnz(), a.nnz());
  for (std::size_t k = 0; k < a.nnz(); ++k) {
    EXPECT_EQ(lor.colind()[k], a.colind()[k]);
    EXPECT_NEAR(lor.values()[k], a.values()[k], 1e-12);
  }
}

// The triplet assembly that the direct CSR build replaced, with its
// duplicates summed in element order: the runtime-bounded element matrix,
// every entry between interior nodes of each element in (ex, ey, i, j, k, l)
// order, a unit diagonal per boundary row, std::stable_sort by (row, col),
// then each run of equal keys summed from 0. `kq(ex, ey, q1, q2)` is the
// coefficient at a quadrature point. Also returns from_triplets' nnz.
struct TripletAssembly {
  std::vector<std::size_t> rowptr;
  std::vector<std::uint32_t> colind;
  std::vector<double> values;
  std::size_t from_triplets_nnz;
};

TripletAssembly element_order_triplets(
    const fem::TensorMesh2D& mesh, double alpha, double beta,
    const std::function<double(std::size_t, std::size_t, std::size_t,
                               std::size_t)>& kq) {
  const std::size_t p1 = mesh.order() + 1, n2 = p1 * p1;
  const auto el = fem::make_element(mesh.order());
  const auto& T = el.tab;
  const auto& w = el.quad.weights;
  const std::size_t q = w.size();
  std::vector<la::Triplet> trips;
  std::vector<double> m(n2 * n2);
  for (std::size_t ex = 0; ex < mesh.nx(); ++ex) {
    for (std::size_t ey = 0; ey < mesh.ny(); ++ey) {
      const double hx = mesh.elem_hx(ex), hy = mesh.elem_hy(ey);
      std::fill(m.begin(), m.end(), 0.0);
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t q2 = 0; q2 < q; ++q2) {
          const double ww = w[q1] * w[q2];
          const double k = kq(ex, ey, q1, q2);
          const double cm = alpha * ww * 0.25 * hx * hy;
          const double cx = beta * k * ww * hy / hx;
          const double cy = beta * k * ww * hx / hy;
          for (std::size_t i = 0; i < p1; ++i) {
            for (std::size_t j = 0; j < p1; ++j) {
              for (std::size_t a = 0; a < p1; ++a) {
                for (std::size_t b = 0; b < p1; ++b) {
                  m[(i * p1 + j) * n2 + a * p1 + b] +=
                      cm * T.b(q1, i) * T.b(q2, j) * T.b(q1, a) * T.b(q2, b) +
                      cx * T.g(q1, i) * T.b(q2, j) * T.g(q1, a) * T.b(q2, b) +
                      cy * T.b(q1, i) * T.g(q2, j) * T.b(q1, a) * T.g(q2, b);
                }
              }
            }
          }
        }
      }
      for (std::size_t i = 0; i < p1; ++i) {
        for (std::size_t j = 0; j < p1; ++j) {
          const std::size_t r = mesh.elem_dof(ex, ey, i, j);
          if (mesh.is_boundary(r)) continue;
          for (std::size_t a = 0; a < p1; ++a) {
            for (std::size_t b = 0; b < p1; ++b) {
              const std::size_t c = mesh.elem_dof(ex, ey, a, b);
              if (mesh.is_boundary(c)) continue;
              trips.push_back({r, c, m[(i * p1 + j) * n2 + a * p1 + b]});
            }
          }
        }
      }
    }
  }
  for (std::size_t b : mesh.boundary_dofs()) trips.push_back({b, b, 1.0});

  TripletAssembly out;
  out.from_triplets_nnz =
      la::CsrMatrix::from_triplets(mesh.num_dofs(), mesh.num_dofs(), trips)
          .nnz();
  std::stable_sort(trips.begin(), trips.end(),
                   [](const la::Triplet& x, const la::Triplet& y) {
                     return x.row != y.row ? x.row < y.row : x.col < y.col;
                   });
  out.rowptr.assign(mesh.num_dofs() + 1, 0);
  for (std::size_t t = 0; t < trips.size();) {
    const std::size_t r = trips[t].row, c = trips[t].col;
    double v = 0.0;
    for (; t < trips.size() && trips[t].row == r && trips[t].col == c; ++t) {
      v += trips[t].value;
    }
    out.colind.push_back(static_cast<std::uint32_t>(c));
    out.values.push_back(v);
    out.rowptr[r + 1] = out.colind.size();
  }
  for (std::size_t r = 0; r < mesh.num_dofs(); ++r) {
    out.rowptr[r + 1] = std::max(out.rowptr[r + 1], out.rowptr[r]);
  }
  return out;
}

// Bit-for-bit comparison; reports the first differing entry only.
template <typename T>
void expect_same(std::span<const T> got, const std::vector<T>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k], want[k]) << what << " entry " << k << std::hexfloat
                               << " (" << got[k] << " vs " << want[k] << ")";
    if (got[k] != want[k]) break;
  }
}

void expect_element_order(const la::CsrMatrix& got,
                          const TripletAssembly& want,
                          const std::string& what) {
  EXPECT_EQ(got.nnz(), want.from_triplets_nnz) << what;
  expect_same(got.rowptr(), want.rowptr, what + " rowptr");
  expect_same(got.colind(), want.colind, what + " colind");
  expect_same(got.values(), want.values, what + " values");
}

TEST(Elliptic, DirectAssemblyMatchesElementOrderTriplets) {
  const double alpha = 0.3, beta = 1.7;
  auto kappa = [](double x, double y) { return 1.0 + x + 0.5 * y * y; };
  // Element lines at the GLL lattice of an order-3 mesh: non-uniform.
  const fem::TensorMesh2D lattice(2, 1, 3);
  for (std::size_t p = 1; p <= 10; ++p) {
    const fem::TensorMesh2D meshes[] = {
        fem::TensorMesh2D(3, 2, p), fem::TensorMesh2D(1, 1, p),
        fem::TensorMesh2D(1, 3, p),
        fem::TensorMesh2D(lattice.dof_xcoords(), lattice.dof_ycoords(), p)};
    const char* names[] = {"3x2", "1x1", "1x3", "non-uniform 6x3"};
    for (std::size_t c = 0; c < std::size(meshes); ++c) {
      const auto& mesh = meshes[c];
      const std::string what = "p=" + std::to_string(p) + " " + names[c];
      fem::EllipticOperator fa(mesh, fem::Assembly::Full, alpha, beta);
      fa.set_kappa(kappa);
      const auto& pts = fem::make_element(p).quad.points;
      expect_element_order(
          fa.assembled_matrix(),
          element_order_triplets(
              mesh, alpha, beta,
              [&](std::size_t ex, std::size_t ey, std::size_t q1,
                  std::size_t q2) {
                return kappa(mesh.quad_x(ex, pts[q1]),
                             mesh.quad_y(ey, pts[q2]));
              }),
          what);

      // The LOR matrix: order 1 on the mesh's GLL lattice, one coefficient
      // per cell, the mean of its four corner values.
      const fem::TensorMesh2D lor(mesh.dof_xcoords(), mesh.dof_ycoords(), 1);
      auto k = [&](std::size_t ix, std::size_t iy) {
        return kappa(mesh.dof_x(ix), mesh.dof_y(iy));
      };
      expect_element_order(
          fa.assemble_lor(),
          element_order_triplets(
              lor, alpha, beta,
              [&](std::size_t ex, std::size_t ey, std::size_t,
                  std::size_t) {
                return 0.25 * (k(ex, ey) + k(ex + 1, ey) + k(ex, ey + 1) +
                               k(ex + 1, ey + 1));
              }),
          what + " lor");
    }
  }
}

TEST(Elliptic, PaStorageSmallerThanCsrAtHighOrder) {
  fem::TensorMesh2D mesh(6, 6, 6);
  fem::EllipticOperator pa(mesh, fem::Assembly::Partial, 1.0, 1.0);
  fem::EllipticOperator fa(mesh, fem::Assembly::Full, 1.0, 1.0);
  EXPECT_LT(pa.storage_bytes() * 5.0, fa.storage_bytes());
}

TEST(DiffusionApp, DecaysAndConserves) {
  auto ctx = core::make_seq();
  fem::DiffusionConfig cfg;
  cfg.nx = 4;
  cfg.order = 2;
  cfg.t_final = 0.005;
  auto app = std::make_unique<fem::NonlinearDiffusion>(ctx, cfg);
  const auto before = std::vector<double>(app->solution().begin(),
                                          app->solution().end());
  auto report = app->run();
  EXPECT_GT(report.ode.steps, 0u);
  EXPECT_GT(report.cg_solves, 0u);
  const auto after = app->solution();
  // Diffusion with zero boundary: max principle -> peak decays, stays >= 0.
  double max_before = 0.0, max_after = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    max_before = std::max(max_before, before[i]);
    max_after = std::max(max_after, after[i]);
    EXPECT_GT(after[i], -1e-6);
  }
  EXPECT_LT(max_after, max_before);
  EXPECT_GT(max_after, 0.1 * max_before);  // not collapsed to zero
}

TEST(Elliptic, AmgOnLorCutsCgIterationsOnStiffSystem) {
  // The stiffness-dominated regime is where the paper's teams needed AMG:
  // compare CG iteration counts with AMG-on-LOR vs plain Jacobi on the
  // high-order operator.
  fem::TensorMesh2D mesh(8, 8, 4);
  fem::EllipticOperator op(mesh, fem::Assembly::Partial, 0.0, 1.0);
  std::vector<double> b(mesh.num_dofs(), 0.0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = mesh.is_boundary(i) ? 0.0 : 1.0;
  }
  la::SolveOptions opts{.max_iters = 2000, .rel_tol = 1e-8};

  auto ctx1 = core::make_seq();
  std::vector<double> x1(mesh.num_dofs(), 0.0);
  auto diag = op.assemble_diagonal();
  struct DiagPrec final : la::Preconditioner {
    const std::vector<double>* d;
    void apply(core::ExecContext& c, std::span<const double> r,
               std::span<double> z) const override {
      const auto& dd = *d;
      c.forall(r.size(), {1.0, 24.0},
               [&](std::size_t i) { z[i] = r[i] / dd[i]; });
    }
  } jac;
  jac.d = &diag;
  auto r1 = la::cg(ctx1, op, jac, b, x1, opts);

  auto ctx2 = core::make_seq();
  std::vector<double> x2(mesh.num_dofs(), 0.0);
  amg::BoomerAmg prec(op.assemble_lor(), {});
  auto r2 = la::cg(ctx2, op, prec, b, x2, opts);

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations * 2, r1.iterations);
  for (std::size_t i = 0; i < x1.size(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-5);
}

TEST(DiffusionApp, TimelineHasAllThreePhases) {
  auto ctx = core::make_device();
  fem::DiffusionConfig cfg;
  cfg.nx = 4;
  cfg.order = 2;
  cfg.t_final = 0.002;
  fem::NonlinearDiffusion app(ctx, cfg);
  app.run();
  bool has_form = false, has_prec = false, has_solve = false;
  for (const auto& ph : ctx.timeline().phases()) {
    has_form |= ph.name == "formulation";
    has_prec |= ph.name == "preconditioner";
    has_solve |= ph.name == "solve";
  }
  EXPECT_TRUE(has_form);
  EXPECT_TRUE(has_prec);
  EXPECT_TRUE(has_solve);
}

}  // namespace
