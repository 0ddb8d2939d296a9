#include "md/neighbor.hpp"

#include <algorithm>
#include <cmath>

namespace coe::md {

void NeighborList::snapshot(const Particles& p) {
  x0_ = p.x;
  y0_ = p.y;
  z0_ = p.z;
}

bool NeighborList::needs_rebuild(const Particles& p, const Box& box) const {
  if (x0_.size() != p.n) return true;
  const double limit = 0.25 * skin_ * skin_;  // (skin/2)^2
  for (std::size_t i = 0; i < p.n; ++i) {
    const double dx = box.wrap(p.x[i] - x0_[i]);
    const double dy = box.wrap(p.y[i] - y0_[i]);
    const double dz = box.wrap(p.z[i] - z0_[i]);
    if (dx * dx + dy * dy + dz * dz > limit) return true;
  }
  return false;
}

void NeighborList::build(core::ExecContext& ctx, const Particles& p,
                         const Box& box, std::size_t row_lo,
                         std::size_t row_hi) {
  const double rc = cutoff_with_skin();
  const double rc2 = rc * rc;
  row_hi = std::min(row_hi, p.n);
  // Cell binning.
  std::size_t ncell = static_cast<std::size_t>(box.length / rc);
  if (ncell < 1) ncell = 1;
  const double cell_size = box.length / static_cast<double>(ncell);
  const std::size_t ncell3 = ncell * ncell * ncell;

  auto clampc = [&](double c) {
    auto v = static_cast<std::size_t>(box.fold(c) / cell_size);
    return v >= ncell ? ncell - 1 : v;
  };
  // Every particle is binned, since any of them can be a neighbor: a
  // counting sort into one flat array, ascending particle index per cell.
  std::vector<std::size_t> cell_of(p.n);
  std::vector<std::size_t> cell_start(ncell3 + 1, 0);
  for (std::size_t i = 0; i < p.n; ++i) {
    cell_of[i] =
        (clampc(p.x[i]) * ncell + clampc(p.y[i])) * ncell + clampc(p.z[i]);
    ++cell_start[cell_of[i] + 1];
  }
  for (std::size_t c = 0; c < ncell3; ++c) cell_start[c + 1] += cell_start[c];
  std::vector<std::uint32_t> cells(p.n);
  {
    std::vector<std::size_t> fill(cell_start.begin(), cell_start.end() - 1);
    for (std::size_t i = 0; i < p.n; ++i) {
      cells[fill[cell_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  // Charge the construction as one kernel sweep over all particles, however
  // few rows are built: the simulated clock prices ddcMD's GPU-resident
  // build, not this host loop.
  ctx.record_kernel({30.0 * static_cast<double>(p.n),
                     64.0 * static_cast<double>(p.n)});

  // Row a is every b > a within the cutoff in the 27 cells around a's
  // cell. With fewer than three cells a side the offsets alias onto the
  // same cells; each cell is scanned once, so a row has no repeats, and the
  // sort puts it in the ascending order the force pass expects.
  row_ptr_.assign(p.n + 1, 0);
  pair_j_.clear();
  const long nc = static_cast<long>(ncell);
  auto wrapc = [nc](std::size_t c, long d) {
    return static_cast<std::size_t>((static_cast<long>(c) + d + nc) % nc);
  };
  std::size_t around[27];
  for (std::size_t a = row_lo; a < row_hi; ++a) {
    const std::size_t home = cell_of[a];
    const std::size_t ci = home / (ncell * ncell);
    const std::size_t cj = (home / ncell) % ncell;
    const std::size_t ck = home % ncell;
    std::size_t na = 0;
    for (long di = -1; di <= 1; ++di) {
      for (long dj = -1; dj <= 1; ++dj) {
        for (long dk = -1; dk <= 1; ++dk) {
          around[na++] = (wrapc(ci, di) * ncell + wrapc(cj, dj)) * ncell +
                         wrapc(ck, dk);
        }
      }
    }
    std::sort(around, around + na);
    na = static_cast<std::size_t>(std::unique(around, around + na) - around);

    row_ptr_[a] = pair_j_.size();
    for (std::size_t c = 0; c < na; ++c) {
      for (std::size_t k = cell_start[around[c]];
           k < cell_start[around[c] + 1]; ++k) {
        const std::uint32_t b = cells[k];
        if (b <= a) continue;
        const double dx = box.wrap(p.x[a] - p.x[b]);
        const double dy = box.wrap(p.y[a] - p.y[b]);
        const double dz = box.wrap(p.z[a] - p.z[b]);
        if (dx * dx + dy * dy + dz * dz <= rc2) pair_j_.push_back(b);
      }
    }
    std::sort(pair_j_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[a]),
              pair_j_.end());
  }
  for (std::size_t a = row_hi; a <= p.n; ++a) row_ptr_[a] = pair_j_.size();
  snapshot(p);
}

void NeighborList::build_n2(core::ExecContext& ctx, const Particles& p,
                            const Box& box) {
  const double rc2 = cutoff_with_skin() * cutoff_with_skin();
  row_ptr_.assign(p.n + 1, 0);
  pair_j_.clear();
  ctx.record_kernel(
      {10.0 * static_cast<double>(p.n) * static_cast<double>(p.n),
       24.0 * static_cast<double>(p.n) * static_cast<double>(p.n)});
  for (std::size_t i = 0; i < p.n; ++i) {
    row_ptr_[i] = pair_j_.size();
    for (std::size_t j = i + 1; j < p.n; ++j) {
      const double dx = box.wrap(p.x[i] - p.x[j]);
      const double dy = box.wrap(p.y[i] - p.y[j]);
      const double dz = box.wrap(p.z[i] - p.z[j]);
      if (dx * dx + dy * dy + dz * dz <= rc2) {
        pair_j_.push_back(static_cast<std::uint32_t>(j));
      }
    }
  }
  row_ptr_[p.n] = pair_j_.size();
  snapshot(p);
}

void NeighborList::save_state(std::vector<double>& out) const {
  out.push_back(static_cast<double>(row_ptr_.size()));
  for (std::size_t v : row_ptr_) out.push_back(static_cast<double>(v));
  out.push_back(static_cast<double>(pair_j_.size()));
  for (std::uint32_t v : pair_j_) out.push_back(static_cast<double>(v));
  out.push_back(static_cast<double>(x0_.size()));
  out.insert(out.end(), x0_.begin(), x0_.end());
  out.insert(out.end(), y0_.begin(), y0_.end());
  out.insert(out.end(), z0_.begin(), z0_.end());
}

const double* NeighborList::load_state(const double* in) {
  const auto nrow = static_cast<std::size_t>(*in++);
  row_ptr_.resize(nrow);
  for (auto& v : row_ptr_) v = static_cast<std::size_t>(*in++);
  const auto npair = static_cast<std::size_t>(*in++);
  pair_j_.resize(npair);
  for (auto& v : pair_j_) v = static_cast<std::uint32_t>(*in++);
  const auto n = static_cast<std::size_t>(*in++);
  x0_.assign(in, in + n);
  in += n;
  y0_.assign(in, in + n);
  in += n;
  z0_.assign(in, in + n);
  in += n;
  return in;
}

}  // namespace coe::md
