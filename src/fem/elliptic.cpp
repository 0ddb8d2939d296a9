#include "fem/elliptic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace coe::fem {

namespace {
// Stack bounds of the element kernels: order <= 10, quadrature = order + 2.
constexpr std::size_t kMaxOrder = 10;
constexpr std::size_t kMaxP1 = kMaxOrder + 1;
constexpr std::size_t kMaxQ = kMaxOrder + 2;

std::size_t checked_order(const TensorMesh2D& mesh) {
  if (mesh.order() < 1 || mesh.order() > kMaxOrder) {
    throw std::invalid_argument(
        "EllipticOperator: order must be in 1.." + std::to_string(kMaxOrder) +
        ", got " + std::to_string(mesh.order()));
  }
  return mesh.order();
}

// The one switch over the orders the element kernels are compiled for:
// calls f(std::integral_constant<std::size_t, order + 1>{}).
template <typename F>
void with_p1(const TensorMesh2D& mesh, F&& f) {
  switch (mesh.order()) {
    case 1: return f(std::integral_constant<std::size_t, 2>{});
    case 2: return f(std::integral_constant<std::size_t, 3>{});
    case 3: return f(std::integral_constant<std::size_t, 4>{});
    case 4: return f(std::integral_constant<std::size_t, 5>{});
    case 5: return f(std::integral_constant<std::size_t, 6>{});
    case 6: return f(std::integral_constant<std::size_t, 7>{});
    case 7: return f(std::integral_constant<std::size_t, 8>{});
    case 8: return f(std::integral_constant<std::size_t, 9>{});
    case 9: return f(std::integral_constant<std::size_t, 10>{});
    case 10: return f(std::integral_constant<std::size_t, 11>{});
    default: checked_order(mesh);  // throws; the constructor checked it
  }
}
}  // namespace

EllipticOperator::EllipticOperator(const TensorMesh2D& mesh, Assembly mode,
                                   double alpha, double beta)
    : mesh_(&mesh), mode_(mode), alpha_(alpha), beta_(beta),
      el_(make_element(checked_order(mesh))) {
  const std::size_t q = el_.quad.points.size();
  kappa_q_.assign(mesh.num_elements() * q * q, 1.0);
  kappa_nodal_.assign(mesh.num_dofs(), 1.0);
}

void EllipticOperator::set_alpha_beta(double alpha, double beta) {
  alpha_ = alpha;
  beta_ = beta;
  full_built_ = false;
}

void EllipticOperator::set_kappa(
    const std::function<double(double, double)>& kappa) {
  const std::size_t q = el_.quad.points.size();
  for (std::size_t ex = 0; ex < mesh_->nx(); ++ex) {
    for (std::size_t ey = 0; ey < mesh_->ny(); ++ey) {
      const std::size_t e = ex * mesh_->ny() + ey;
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t q2 = 0; q2 < q; ++q2) {
          kappa_q_[(e * q + q1) * q + q2] =
              kappa(mesh_->quad_x(ex, el_.quad.points[q1]),
                    mesh_->quad_y(ey, el_.quad.points[q2]));
        }
      }
    }
  }
  for (std::size_t ix = 0; ix < mesh_->ndof_x(); ++ix) {
    for (std::size_t iy = 0; iy < mesh_->ndof_y(); ++iy) {
      kappa_nodal_[mesh_->dof(ix, iy)] =
          kappa(mesh_->dof_x(ix), mesh_->dof_y(iy));
    }
  }
  full_built_ = false;
}

void EllipticOperator::set_kappa_from_nodal(
    std::span<const double> u, const std::function<double(double)>& k) {
  const std::size_t p1 = mesh_->order() + 1;
  const std::size_t q = el_.quad.points.size();
  const auto& B = el_.tab;
  // Interpolate u to quadrature points per element, then apply k.
  for (std::size_t ex = 0; ex < mesh_->nx(); ++ex) {
    for (std::size_t ey = 0; ey < mesh_->ny(); ++ey) {
      const std::size_t e = ex * mesh_->ny() + ey;
      double tmp[kMaxQ][kMaxP1];
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t j = 0; j < p1; ++j) {
          double s = 0.0;
          for (std::size_t i = 0; i < p1; ++i) {
            s += B.b(q1, i) * u[mesh_->elem_dof(ex, ey, i, j)];
          }
          tmp[q1][j] = s;
        }
      }
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t q2 = 0; q2 < q; ++q2) {
          double s = 0.0;
          for (std::size_t j = 0; j < p1; ++j) s += tmp[q1][j] * B.b(q2, j);
          kappa_q_[(e * q + q1) * q + q2] = k(s);
        }
      }
    }
  }
  for (std::size_t d = 0; d < mesh_->num_dofs(); ++d) {
    kappa_nodal_[d] = k(u[d]);
  }
  full_built_ = false;
}

void EllipticOperator::apply(core::ExecContext& ctx,
                             std::span<const double> x,
                             std::span<double> y) const {
  if (mode_ == Assembly::Partial) {
    apply_partial(ctx, x, y);
  } else {
    assembled_matrix().spmv(ctx, x, y);
  }
  // Identity rows on the Dirichlet boundary.
  const auto& bdr = mesh_->boundary_dofs();
  ctx.forall(bdr.size(), {0.0, 24.0},
             [&](std::size_t i) { y[bdr[i]] = x[bdr[i]]; });
}

void EllipticOperator::apply_partial(core::ExecContext& ctx,
                                     std::span<const double> x,
                                     std::span<double> y) const {
  with_p1(*mesh_, [&](auto p1) {
    apply_partial_p<p1(), p1() + 1>(ctx, x, y);
  });
}

template <std::size_t P1, std::size_t Q>
void EllipticOperator::apply_partial_p(core::ExecContext& ctx,
                                       std::span<const double> x,
                                       std::span<double> y) const {
  static_assert(Q == P1 + 1 && P1 <= kMaxP1);
  constexpr std::size_t p1 = P1;
  constexpr std::size_t q = Q;
  const auto& w = el_.quad.weights;
  // The basis values B and derivatives G at the Gauss points, copied
  // into arrays with compile-time strides.
  double B[Q][P1], G[Q][P1];
  for (std::size_t q1 = 0; q1 < q; ++q1) {
    for (std::size_t i = 0; i < p1; ++i) {
      B[q1][i] = el_.tab.b(q1, i);
      G[q1][i] = el_.tab.g(q1, i);
    }
  }

  ctx.forall(y.size(), {0.0, 8.0}, [&](std::size_t i) { y[i] = 0.0; });

  const double fpe = pa_flops_per_apply() /
                     static_cast<double>(mesh_->num_elements());
  const double bpe = pa_bytes_per_apply() /
                     static_cast<double>(mesh_->num_elements());

  // Four-color element sweep: same-color elements share no dofs. The sweep
  // fixes the scatter-add order that the FEM fingerprints and the Table 4
  // baseline pin; one plain element loop would reorder the sums.
  for (std::size_t color = 0; color < 4; ++color) {
    const std::size_t cx = color % 2, cy = color / 2;
    const std::size_t nex = (mesh_->nx() + 1 - cx) / 2;
    const std::size_t ney = (mesh_->ny() + 1 - cy) / 2;
    if (nex == 0 || ney == 0) continue;
    ctx.forall2(nex, ney, {fpe, bpe}, [&](std::size_t bx, std::size_t by) {
      const std::size_t ex = 2 * bx + cx;
      const std::size_t ey = 2 * by + cy;
      if (ex >= mesh_->nx() || ey >= mesh_->ny()) return;
      const std::size_t e = ex * mesh_->ny() + ey;
      const double hx = mesh_->elem_hx(ex);
      const double hy = mesh_->elem_hy(ey);

      // ConstrainedOperator semantics: boundary columns are eliminated, so
      // boundary entries of x are treated as zero here and restored by the
      // identity rows afterwards.
      double E[P1][P1];
      for (std::size_t i = 0; i < p1; ++i) {
        for (std::size_t j = 0; j < p1; ++j) {
          const std::size_t d = mesh_->elem_dof(ex, ey, i, j);
          E[i][j] = mesh_->is_boundary(d) ? 0.0 : x[d];
        }
      }

      // Forward contractions: values and reference gradients at qpoints.
      double tb[Q][P1], tg[Q][P1];
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t j = 0; j < p1; ++j) {
          double sb = 0.0, sg = 0.0;
          for (std::size_t i = 0; i < p1; ++i) {
            sb += B[q1][i] * E[i][j];
            sg += G[q1][i] * E[i][j];
          }
          tb[q1][j] = sb;
          tg[q1][j] = sg;
        }
      }
      double Uq[Q][Q], Gx[Q][Q], Gy[Q][Q];
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t q2 = 0; q2 < q; ++q2) {
          double su = 0.0, sx = 0.0, sy = 0.0;
          for (std::size_t j = 0; j < p1; ++j) {
            su += tb[q1][j] * B[q2][j];
            sx += tg[q1][j] * B[q2][j];
            sy += tb[q1][j] * G[q2][j];
          }
          Uq[q1][q2] = su;
          Gx[q1][q2] = sx;
          Gy[q1][q2] = sy;
        }
      }

      // Pointwise quadrature scaling.
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t q2 = 0; q2 < q; ++q2) {
          const double ww = w[q1] * w[q2];
          const double kq = kappa_q_[(e * q + q1) * q + q2];
          const double m = alpha_ * ww * 0.25 * hx * hy;
          const double dx = beta_ * kq * ww * hy / hx;
          const double dy = beta_ * kq * ww * hx / hy;
          Uq[q1][q2] *= m;
          Gx[q1][q2] *= dx;
          Gy[q1][q2] *= dy;
        }
      }

      // Backward contractions: Y = B'(Uq)B + G'(Gx)B + B'(Gy)G.
      double sb1[P1][Q], sb2[P1][Q];
      for (std::size_t i = 0; i < p1; ++i) {
        for (std::size_t q2 = 0; q2 < q; ++q2) {
          double s1 = 0.0, s2 = 0.0;
          for (std::size_t q1 = 0; q1 < q; ++q1) {
            s1 += B[q1][i] * Uq[q1][q2] + G[q1][i] * Gx[q1][q2];
            s2 += B[q1][i] * Gy[q1][q2];
          }
          sb1[i][q2] = s1;
          sb2[i][q2] = s2;
        }
      }
      for (std::size_t i = 0; i < p1; ++i) {
        for (std::size_t j = 0; j < p1; ++j) {
          double s = 0.0;
          for (std::size_t q2 = 0; q2 < q; ++q2) {
            s += sb1[i][q2] * B[q2][j] + sb2[i][q2] * G[q2][j];
          }
          y[mesh_->elem_dof(ex, ey, i, j)] += s;
        }
      }
    });
  }
}

template <std::size_t P1, std::size_t Q>
void EllipticOperator::element_matrix_p(std::size_t ex, std::size_t ey,
                                        std::span<double> m) const {
  static_assert(Q == P1 + 1 && P1 <= kMaxP1);
  constexpr std::size_t p1 = P1;
  constexpr std::size_t q = Q;
  constexpr std::size_t n2 = P1 * P1;
  const auto& w = el_.quad.weights;
  double B[Q][P1], G[Q][P1];
  for (std::size_t q1 = 0; q1 < q; ++q1) {
    for (std::size_t i = 0; i < p1; ++i) {
      B[q1][i] = el_.tab.b(q1, i);
      G[q1][i] = el_.tab.g(q1, i);
    }
  }
  const double hx = mesh_->elem_hx(ex);
  const double hy = mesh_->elem_hy(ey);
  const std::size_t e = ex * mesh_->ny() + ey;
  std::fill(m.begin(), m.end(), 0.0);
  for (std::size_t q1 = 0; q1 < q; ++q1) {
    for (std::size_t q2 = 0; q2 < q; ++q2) {
      const double ww = w[q1] * w[q2];
      const double kq = kappa_q_[(e * q + q1) * q + q2];
      const double cm = alpha_ * ww * 0.25 * hx * hy;
      const double cx = beta_ * kq * ww * hy / hx;
      const double cy = beta_ * kq * ww * hx / hy;
      for (std::size_t i = 0; i < p1; ++i) {
        for (std::size_t j = 0; j < p1; ++j) {
          const double bi = B[q1][i], bj = B[q2][j];
          const double gi = G[q1][i], gj = G[q2][j];
          for (std::size_t k = 0; k < p1; ++k) {
            for (std::size_t l = 0; l < p1; ++l) {
              const double bk = B[q1][k], bl = B[q2][l];
              const double gk = G[q1][k], gl = G[q2][l];
              m[(i * p1 + j) * n2 + k * p1 + l] += cm * bi * bj * bk * bl +
                                                   cx * gi * bj * gk * bl +
                                                   cy * bi * gj * bk * gl;
            }
          }
        }
      }
    }
  }
}

void EllipticOperator::element_matrix(std::size_t ex, std::size_t ey,
                                      std::span<double> m) const {
  with_p1(*mesh_, [&](auto p1) {
    element_matrix_p<p1(), p1() + 1>(ex, ey, m);
  });
}

void EllipticOperator::build_full() const {
  // Direct CSR from the tensor-mesh sparsity, no triplets and no sort.
  // Along one axis, an interior lattice index i (0 < i < n - 1) lies in the
  // elements spanning [((i - 1) / p) p, (i / p + 1) p]: one element when i
  // is inside an element, two when it is on an element line. Row (ix, iy)
  // therefore couples with the interior nodes of the rectangle of xlen[ix]
  // by ylen[iy] nodes from (xlo[ix], ylo[iy]), stored x-major like the dof
  // numbering, so its columns ascend. A boundary row holds only its unit
  // diagonal. Element entries are added in element order (ex, ey, i, j, k,
  // l), so each duplicate sum has that order.
  const std::size_t p = mesh_->order();
  const std::size_t p1 = p + 1;
  const std::size_t n2 = p1 * p1;
  const std::size_t nx = mesh_->ndof_x(), ny = mesh_->ndof_y();
  auto span_of = [p](std::size_t n, std::vector<std::size_t>& lo,
                     std::vector<std::size_t>& len) {
    lo.assign(n, 0);
    len.assign(n, 0);
    for (std::size_t i = 1; i + 1 < n; ++i) {
      lo[i] = std::max<std::size_t>((i - 1) / p * p, 1);
      len[i] = std::min((i / p + 1) * p, n - 2) + 1 - lo[i];
    }
  };
  std::vector<std::size_t> xlo, xlen, ylo, ylen;
  span_of(nx, xlo, xlen);
  span_of(ny, ylo, ylen);

  std::vector<std::size_t> rowptr(mesh_->num_dofs() + 1, 0);
  for (std::size_t ix = 0; ix < nx; ++ix) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const std::size_t r = mesh_->dof(ix, iy);
      rowptr[r + 1] =
          rowptr[r] + (mesh_->is_boundary(r) ? 1 : xlen[ix] * ylen[iy]);
    }
  }
  std::vector<std::uint32_t> colind(rowptr.back());
  std::vector<double> values(rowptr.back(), 0.0);
  for (std::size_t ix = 0; ix < nx; ++ix) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const std::size_t r = mesh_->dof(ix, iy);
      std::size_t k = rowptr[r];
      if (mesh_->is_boundary(r)) {
        colind[k] = static_cast<std::uint32_t>(r);
        values[k] = 1.0;
        continue;
      }
      for (std::size_t jx = xlo[ix]; jx < xlo[ix] + xlen[ix]; ++jx) {
        for (std::size_t jy = ylo[iy]; jy < ylo[iy] + ylen[iy]; ++jy) {
          colind[k++] = static_cast<std::uint32_t>(mesh_->dof(jx, jy));
        }
      }
    }
  }

  std::vector<double> m(n2 * n2);
  for (std::size_t ex = 0; ex < mesh_->nx(); ++ex) {
    for (std::size_t ey = 0; ey < mesh_->ny(); ++ey) {
      element_matrix(ex, ey, m);
      for (std::size_t i = 0; i < p1; ++i) {
        for (std::size_t j = 0; j < p1; ++j) {
          const std::size_t ix = ex * p + i, iy = ey * p + j;
          const std::size_t r = mesh_->dof(ix, iy);
          if (mesh_->is_boundary(r)) continue;
          for (std::size_t k = 0; k < p1; ++k) {
            for (std::size_t l = 0; l < p1; ++l) {
              const std::size_t jx = ex * p + k, jy = ey * p + l;
              if (mesh_->is_boundary(mesh_->dof(jx, jy))) continue;
              values[rowptr[r] + (jx - xlo[ix]) * ylen[iy] + (jy - ylo[iy])] +=
                  m[(i * p1 + j) * n2 + k * p1 + l];
            }
          }
        }
      }
    }
  }
  full_ = la::CsrMatrix(mesh_->num_dofs(), mesh_->num_dofs(), std::move(rowptr),
                        std::move(colind), std::move(values));
  full_built_ = true;
}

const la::CsrMatrix& EllipticOperator::assembled_matrix() const {
  if (!full_built_) build_full();
  return full_;
}

la::CsrMatrix EllipticOperator::assemble_lor() const {
  // Order-1 mesh whose element boundaries are the GLL lattice lines.
  TensorMesh2D lor_mesh(mesh_->dof_xcoords(), mesh_->dof_ycoords(), 1);
  EllipticOperator lor(lor_mesh, Assembly::Full, alpha_, beta_);
  // Coefficient per LOR cell: mean of the four corner nodal values (the
  // corners are exactly the high-order dofs).
  const std::size_t q = lor.el_.quad.points.size();
  for (std::size_t ex = 0; ex < lor_mesh.nx(); ++ex) {
    for (std::size_t ey = 0; ey < lor_mesh.ny(); ++ey) {
      const double kavg = 0.25 * (kappa_nodal_[mesh_->dof(ex, ey)] +
                                  kappa_nodal_[mesh_->dof(ex + 1, ey)] +
                                  kappa_nodal_[mesh_->dof(ex, ey + 1)] +
                                  kappa_nodal_[mesh_->dof(ex + 1, ey + 1)]);
      const std::size_t e = ex * lor_mesh.ny() + ey;
      for (std::size_t qq = 0; qq < q * q; ++qq) {
        lor.kappa_q_[e * q * q + qq] = kavg;
      }
    }
  }
  return lor.assembled_matrix();
}

std::vector<double> EllipticOperator::assemble_diagonal() const {
  // Only the k = i, l = j terms of element_matrix(), accumulated in the
  // same quadrature order with the same products, so each entry is
  // bitwise the diagonal of the full element matrix.
  const std::size_t p1 = mesh_->order() + 1;
  const std::size_t q = el_.quad.points.size();
  const auto& T = el_.tab;
  const auto& w = el_.quad.weights;
  std::vector<double> d(mesh_->num_dofs(), 0.0);
  for (std::size_t ex = 0; ex < mesh_->nx(); ++ex) {
    for (std::size_t ey = 0; ey < mesh_->ny(); ++ey) {
      const double hx = mesh_->elem_hx(ex);
      const double hy = mesh_->elem_hy(ey);
      const std::size_t e = ex * mesh_->ny() + ey;
      double de[kMaxP1][kMaxP1] = {};
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t q2 = 0; q2 < q; ++q2) {
          const double ww = w[q1] * w[q2];
          const double kq = kappa_q_[(e * q + q1) * q + q2];
          const double cm = alpha_ * ww * 0.25 * hx * hy;
          const double cx = beta_ * kq * ww * hy / hx;
          const double cy = beta_ * kq * ww * hx / hy;
          for (std::size_t i = 0; i < p1; ++i) {
            for (std::size_t j = 0; j < p1; ++j) {
              const double bi = T.b(q1, i), bj = T.b(q2, j);
              const double gi = T.g(q1, i), gj = T.g(q2, j);
              de[i][j] += cm * bi * bj * bi * bj + cx * gi * bj * gi * bj +
                          cy * bi * gj * bi * gj;
            }
          }
        }
      }
      for (std::size_t i = 0; i < p1; ++i) {
        for (std::size_t j = 0; j < p1; ++j) {
          d[mesh_->elem_dof(ex, ey, i, j)] += de[i][j];
        }
      }
    }
  }
  for (std::size_t b : mesh_->boundary_dofs()) d[b] = 1.0;
  return d;
}

double EllipticOperator::pa_flops_per_apply() const {
  const double p1 = static_cast<double>(mesh_->order() + 1);
  const double q = static_cast<double>(el_.quad.points.size());
  const double nel = static_cast<double>(mesh_->num_elements());
  // Forward: 2 fused passes (4 madds each over q*p1*p1 and q*q*p1 spaces),
  // pointwise: ~10 q^2, backward mirrors forward.
  const double per_elem = 8.0 * q * p1 * p1 + 12.0 * q * q * p1 +
                          10.0 * q * q + 8.0 * q * p1 * p1 +
                          12.0 * q * q * p1;
  return nel * per_elem;
}

double EllipticOperator::pa_bytes_per_apply() const {
  const double p1 = static_cast<double>(mesh_->order() + 1);
  const double q = static_cast<double>(el_.quad.points.size());
  const double nel = static_cast<double>(mesh_->num_elements());
  // Element dofs in+out plus quadrature coefficient data.
  return nel * (3.0 * p1 * p1 * 8.0 + q * q * 8.0);
}

double EllipticOperator::storage_bytes() const {
  if (mode_ == Assembly::Partial) {
    return static_cast<double>(kappa_q_.size()) * 8.0;
  }
  const auto& m = assembled_matrix();
  return static_cast<double>(m.nnz()) * 12.0 +
         static_cast<double>(m.rows()) * 8.0;
}

}  // namespace coe::fem
