#include "kinetics/solver.hpp"

#include <algorithm>
#include <cmath>

#include "la/dense.hpp"
#include "la/krylov.hpp"

namespace coe::kinetics {

namespace {

/// Total rate W[j -> i] contributions assembled as triplets (off-diagonal
/// gains, diagonal losses).
void accumulate_rates(const AtomicModel& m, const Zone& z,
                      std::vector<la::Triplet>& trips) {
  const std::size_t n = m.num_levels();
  std::vector<double> loss(n, 0.0);
  for (const auto& t : m.transitions) {
    const double up = collisional_up(m, t, z);
    const double down = collisional_down(m, t, z) + radiative_down(m, t);
    // lo -> hi at rate `up`: gain for hi, loss for lo.
    trips.push_back({t.hi, t.lo, up});
    loss[t.lo] += up;
    trips.push_back({t.lo, t.hi, down});
    loss[t.hi] += down;
  }
  for (std::size_t i = 0; i < n; ++i) trips.push_back({i, i, -loss[i]});
}

}  // namespace

std::vector<double> assemble_rate_matrix(const AtomicModel& m,
                                         const Zone& z) {
  const std::size_t n = m.num_levels();
  std::vector<la::Triplet> trips;
  accumulate_rates(m, z, trips);
  std::vector<double> a(n * n, 0.0);
  for (const auto& t : trips) {
    if (t.row == 0) continue;  // row 0 becomes the normalization
    a[t.row * n + t.col] += t.value;
  }
  for (std::size_t j = 0; j < n; ++j) a[j] = 1.0;  // sum(N) = 1
  return a;
}

std::vector<double> solve_zone(const AtomicModel& m, const Zone& z,
                               SolveMethod method) {
  const std::size_t n = m.num_levels();
  std::vector<double> rhs(n, 0.0);
  rhs[0] = 1.0;

  const auto a_flat = assemble_rate_matrix(m, z);
  if (method == SolveMethod::DenseDirect) {
    la::DenseMatrix a(n, n);
    for (std::size_t i = 0; i < n * n; ++i) a.data()[i] = a_flat[i];
    la::LuFactor lu(a);
    lu.solve(rhs);
    return rhs;
  }

  // Sparse iterative: CSR + Jacobi-preconditioned GMRES.
  std::vector<la::Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (a_flat[i * n + j] != 0.0) {
        trips.push_back({i, j, a_flat[i * n + j]});
      }
    }
  }
  auto csr = la::CsrMatrix::from_triplets(n, n, std::move(trips));
  std::vector<double> x(n, 1.0 / static_cast<double>(n));
  auto ctx = core::make_seq();
  la::CsrOperator op(csr);
  la::JacobiPreconditioner prec(csr);
  la::gmres(ctx, op, prec, rhs, x, std::min<std::size_t>(n, 60),
            {.max_iters = 2000, .rel_tol = 1e-12});
  return x;
}

double kinetics_residual(const AtomicModel& m, const Zone& z,
                         std::span<const double> populations) {
  const std::size_t n = m.num_levels();
  std::vector<la::Triplet> trips;
  accumulate_rates(m, z, trips);
  std::vector<double> r(n, 0.0);
  for (const auto& t : trips) {
    r[t.row] += t.value * populations[t.col];
  }
  double worst = 0.0;
  for (std::size_t i = 1; i < n; ++i) {  // row 0 is the closure
    worst = std::max(worst, std::abs(r[i]));
  }
  return worst;
}

BatchReport process_zones(core::ExecContext& ctx, const AtomicModel& m,
                          std::span<const Zone> zones, SolveMethod method,
                          ThreadMode mode, std::size_t workers,
                          double mem_bytes,
                          std::vector<std::vector<double>>* out) {
  BatchReport rep;
  rep.zones = zones.size();
  rep.total_workers = workers;

  const double n = static_cast<double>(m.num_levels());
  const double ntrans = static_cast<double>(m.transitions.size());
  // Per-zone work: rate evaluation (~40 flops/transition for up+down+rad),
  // matrix assembly, and the solve.
  const double rate_flops = 40.0 * ntrans;
  const double assemble_flops = 4.0 * ntrans + n;
  double solve_flops;
  if (method == SolveMethod::DenseDirect) {
    solve_flops = 2.0 / 3.0 * n * n * n + 2.0 * n * n;
  } else {
    // Iterative: ~n/2 GMRES iterations of 2*nnz each (empirical fit).
    solve_flops = 0.5 * n * 2.0 * (2.0 * ntrans + n);
  }
  const double per_zone = rate_flops + assemble_flops + solve_flops;
  rep.flops = per_zone * static_cast<double>(zones.size());

  // Memory-constrained concurrency.
  if (mode == ThreadMode::ZoneParallel) {
    const auto fit = static_cast<std::size_t>(mem_bytes /
                                              m.workspace_bytes());
    rep.active_workers = std::clamp<std::size_t>(fit, 1, workers);
  } else {
    // One zone live at a time: always fits; lanes cooperate on the
    // transition loop and the factorization's row updates.
    rep.active_workers =
        std::min<std::size_t>(workers,
                              static_cast<std::size_t>(ntrans + n));
  }

  // Real computation (populations) + cost accounting.
  if (out != nullptr) {
    out->clear();
    out->reserve(zones.size());
    for (const auto& z : zones) out->push_back(solve_zone(m, z, method));
  }
  ctx.record_kernel({rep.flops, rep.flops * 2.0});

  const double lane_flops =
      ctx.model().machine().flops() / static_cast<double>(workers);
  const double efficiency =
      mode == ThreadMode::TransitionParallel ? 0.7 : 1.0;
  rep.modeled_time = rep.flops / (lane_flops *
                                  static_cast<double>(rep.active_workers) *
                                  efficiency);
  return rep;
}

}  // namespace coe::kinetics
