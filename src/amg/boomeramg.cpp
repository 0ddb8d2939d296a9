#include "amg/boomeramg.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "la/smoothers.hpp"
#include "la/vector_ops.hpp"

namespace coe::amg {

la::CsrMatrix strength_graph(const la::CsrMatrix& a, double theta) {
  const auto rowptr = a.rowptr();
  const auto colind = a.colind();
  const auto values = a.values();
  // Rows of A have ascending columns, so S is built row by row in CSR.
  std::vector<std::size_t> srow(a.rows() + 1, 0);
  std::vector<std::uint32_t> scol;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double max_off = 0.0;
    for (std::size_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      if (colind[k] != i && -values[k] > max_off) max_off = -values[k];
    }
    if (max_off > 0.0) {
      for (std::size_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
        if (colind[k] != i && -values[k] >= theta * max_off) {
          scol.push_back(colind[k]);
        }
      }
    }
    srow[i + 1] = scol.size();
  }
  std::vector<double> ones(scol.size(), 1.0);
  return la::CsrMatrix(a.rows(), a.cols(), std::move(srow), std::move(scol),
                       std::move(ones));
}

std::vector<PointType> pmis_coarsen(const la::CsrMatrix& s,
                                    std::uint64_t seed) {
  const std::size_t n = s.rows();
  // Measure: number of points strongly influenced by i (column count of S),
  // plus a deterministic random tiebreak in (0, 1).
  auto st = s.transpose();
  std::vector<double> measure(n);
  core::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    measure[i] =
        static_cast<double>(st.rowptr()[i + 1] - st.rowptr()[i]) +
        rng.uniform();
  }

  enum : std::uint8_t { kUndecided = 0, kC = 1, kF = 2 };
  std::vector<std::uint8_t> state(n, kUndecided);
  // Points with no strong connections at all become F immediately (they
  // smooth perfectly) unless they also influence nothing.
  for (std::size_t i = 0; i < n; ++i) {
    const bool no_out = s.rowptr()[i + 1] == s.rowptr()[i];
    const bool no_in = st.rowptr()[i + 1] == st.rowptr()[i];
    if (no_out && no_in) state[i] = kF;
  }

  // The PMIS neighbourhood of i is S(i) followed by S^T(i); `visit` walks
  // it in that order and stops at the first j for which f(j) is true.
  const la::CsrMatrix* const graphs[] = {&s, &st};
  auto visit = [&](std::size_t i, auto f) {
    for (const la::CsrMatrix* g : graphs) {
      const auto rp = g->rowptr();
      const auto ci = g->colind();
      for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
        if (f(ci[k])) return;
      }
    }
  };

  bool changed = true;
  std::vector<std::size_t> new_c;
  while (changed) {
    changed = false;
    // Select local maxima among undecided points as C.
    new_c.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (state[i] != kUndecided) continue;
      bool is_max = true;
      visit(i, [&](std::size_t j) {
        if (state[j] == kUndecided && measure[j] > measure[i]) is_max = false;
        return !is_max;
      });
      if (is_max) new_c.push_back(i);
    }
    for (std::size_t i : new_c) {
      state[i] = kC;
      changed = true;
      visit(i, [&](std::size_t j) {
        if (state[j] == kUndecided) state[j] = kF;
        return false;
      });
    }
  }

  // Fixup: every F point must keep a strong C neighbour for interpolation.
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] != kF) continue;
    if (s.rowptr()[i + 1] == s.rowptr()[i]) continue;  // truly isolated row
    bool has_c = false;
    for (std::size_t k = s.rowptr()[i]; k < s.rowptr()[i + 1]; ++k) {
      if (state[s.colind()[k]] == kC) {
        has_c = true;
        break;
      }
    }
    if (!has_c) state[i] = kC;
  }

  std::vector<PointType> cf(n, PointType::Fine);
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == kC) cf[i] = PointType::Coarse;
  }
  return cf;
}

la::CsrMatrix direct_interpolation(const la::CsrMatrix& a,
                                   const la::CsrMatrix& s,
                                   const std::vector<PointType>& cf) {
  const std::size_t n = a.rows();
  std::vector<std::size_t> coarse_index(n, 0);
  std::size_t nc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cf[i] == PointType::Coarse) coarse_index[i] = nc++;
  }

  // P row by row in CSR: a C point injects, an F point interpolates from
  // its strong C neighbours in S's (ascending) column order, so the coarse
  // columns ascend too.
  std::vector<std::size_t> prow(n + 1, 0);
  std::vector<std::uint32_t> pcol;
  std::vector<double> pval;
  const auto ar = a.rowptr();
  const auto ac = a.colind();
  const auto av = a.values();
  for (std::size_t i = 0; i < n; ++i) {
    prow[i] = pcol.size();
    if (cf[i] == PointType::Coarse) {
      pcol.push_back(static_cast<std::uint32_t>(coarse_index[i]));
      pval.push_back(1.0);
      continue;
    }
    // Collect the strong coarse set C_i.
    double sum_all_off = 0.0;
    double diag = 0.0;
    for (std::size_t k = ar[i]; k < ar[i + 1]; ++k) {
      if (ac[k] == i) {
        diag = av[k];
      } else {
        sum_all_off += av[k];
      }
    }
    double sum_strong_c = 0.0;
    for (std::size_t k = s.rowptr()[i]; k < s.rowptr()[i + 1]; ++k) {
      const std::size_t j = s.colind()[k];
      if (cf[j] != PointType::Coarse) continue;
      // Find a_ij.
      for (std::size_t l = ar[i]; l < ar[i + 1]; ++l) {
        if (ac[l] == j) {
          sum_strong_c += av[l];
          break;
        }
      }
    }
    if (sum_strong_c == 0.0 || diag == 0.0) continue;  // isolated fine point
    const double alpha = sum_all_off / sum_strong_c;
    for (std::size_t k = s.rowptr()[i]; k < s.rowptr()[i + 1]; ++k) {
      const std::size_t j = s.colind()[k];
      if (cf[j] != PointType::Coarse) continue;
      for (std::size_t l = ar[i]; l < ar[i + 1]; ++l) {
        if (ac[l] == j) {
          pcol.push_back(static_cast<std::uint32_t>(coarse_index[j]));
          pval.push_back(-alpha * av[l] / diag);
          break;
        }
      }
    }
  }
  prow[n] = pcol.size();
  return la::CsrMatrix(n, nc, std::move(prow), std::move(pcol),
                       std::move(pval));
}

BoomerAmg::BoomerAmg(la::CsrMatrix a_fine, const AmgOptions& opts)
    : opts_(opts) {
  la::CsrMatrix a = std::move(a_fine);
  auto charge_setup = [&](double nnz) {
    if (opts_.setup_ctx != nullptr) {
      // Strength graph + PMIS + interpolation + RAP: ~12 flops and ~70
      // bytes per level nonzero (dominated by the sparse triple product).
      opts_.setup_ctx->record_kernel({12.0 * nnz, 70.0 * nnz});
    }
  };
  for (std::size_t l = 0; l < opts_.max_levels; ++l) {
    AmgLevel level;
    level.a = std::move(a);
    level.diag = level.a.diagonal();
    level.l1 = level.a.l1_row_sums();
    const std::size_t n = level.a.rows();
    level.x.assign(n, 0.0);
    level.b.assign(n, 0.0);
    level.tmp.assign(n, 0.0);

    if (n <= opts_.coarse_size || l + 1 == opts_.max_levels) {
      levels_.push_back(std::move(level));
      break;
    }
    charge_setup(static_cast<double>(level.a.nnz()));
    auto s = strength_graph(level.a, opts_.strength_theta);
    auto cf = pmis_coarsen(s);
    std::size_t nc = 0;
    for (auto t : cf) nc += (t == PointType::Coarse);
    if (nc == 0 || nc == n) {  // coarsening stalled
      levels_.push_back(std::move(level));
      break;
    }
    level.p = direct_interpolation(level.a, s, cf);
    level.r = level.p.transpose();
    a = level.r.multiply(level.a).multiply(level.p);  // Galerkin RAP
    levels_.push_back(std::move(level));
  }

  // Dense factorization of the coarsest operator.
  const auto& ac = levels_.back().a;
  la::DenseMatrix dense(ac.rows(), ac.cols());
  for (std::size_t i = 0; i < ac.rows(); ++i) {
    for (std::size_t k = ac.rowptr()[i]; k < ac.rowptr()[i + 1]; ++k) {
      dense(i, ac.colind()[k]) = ac.values()[k];
    }
  }
  coarse_lu_ = std::make_unique<la::LuFactor>(dense);
}

double BoomerAmg::operator_complexity() const {
  double fine = static_cast<double>(levels_[0].a.nnz());
  double total = 0.0;
  for (const auto& l : levels_) total += static_cast<double>(l.a.nnz());
  return total / fine;
}

void BoomerAmg::cycle(core::ExecContext& ctx, std::size_t l) const {
  const AmgLevel& lev = levels_[l];
  const std::size_t n = lev.a.rows();
  if (l + 1 == levels_.size()) {
    // Coarse solve: copy b, LU solve. Charged as one dense solve kernel.
    for (std::size_t i = 0; i < n; ++i) lev.x[i] = lev.b[i];
    ctx.record_kernel({coarse_lu_->solve_flops(),
                       static_cast<double>(n * n) * 8.0});
    coarse_lu_->solve(lev.x);
    return;
  }

  la::fill(ctx, lev.x, 0.0);
  for (std::size_t s = 0; s < opts_.pre_sweeps; ++s) {
    la::jacobi_sweep(ctx, lev.a, lev.diag, opts_.jacobi_weight, lev.b, lev.x,
                     lev.tmp);
  }
  // Residual r = b - A x.
  lev.a.spmv(ctx, lev.x, lev.tmp);
  ctx.forall(n, {1.0, 24.0},
             [&](std::size_t i) { lev.tmp[i] = lev.b[i] - lev.tmp[i]; });
  // Restrict to the next level's b.
  const AmgLevel& next = levels_[l + 1];
  lev.r.spmv(ctx, lev.tmp, next.b);
  cycle(ctx, l + 1);
  // Prolongate and correct: x += P * x_coarse.
  lev.p.spmv(ctx, next.x, lev.tmp);
  la::axpy(ctx, 1.0, lev.tmp, lev.x);
  for (std::size_t s = 0; s < opts_.post_sweeps; ++s) {
    la::jacobi_sweep(ctx, lev.a, lev.diag, opts_.jacobi_weight, lev.b, lev.x,
                     lev.tmp);
  }
}

void BoomerAmg::apply(core::ExecContext& ctx, std::span<const double> r,
                      std::span<double> z) const {
  const AmgLevel& top = levels_[0];
  assert(r.size() == top.a.rows());
  for (std::size_t i = 0; i < r.size(); ++i) top.b[i] = r[i];
  cycle(ctx, 0);
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = top.x[i];
}

std::size_t BoomerAmg::solve(core::ExecContext& ctx,
                             std::span<const double> b, std::span<double> x,
                             double rel_tol, std::size_t max_iters) const {
  const auto& a = levels_[0].a;
  const std::size_t n = a.rows();
  std::vector<double> r(n), z(n);
  a.spmv(ctx, x, r);
  la::axpby(ctx, 1.0, b, -1.0, r, r);
  const double r0 = la::norm2(ctx, r);
  if (r0 == 0.0) return 0;
  for (std::size_t it = 1; it <= max_iters; ++it) {
    apply(ctx, r, z);
    la::axpy(ctx, 1.0, z, x);
    a.spmv(ctx, x, r);
    la::axpby(ctx, 1.0, b, -1.0, r, r);
    if (la::norm2(ctx, r) <= rel_tol * r0) return it;
  }
  return max_iters;
}

}  // namespace coe::amg
