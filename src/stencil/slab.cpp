#include "stencil/slab.hpp"

#include <algorithm>
#include <cmath>

namespace coe::stencil {

namespace {

// Per-point cost of the fused Laplacian + leapfrog update, matching the
// serial WaveSolver pricing (5-point MACs per axis + time update; 13
// stencil loads, u_prev load, u_next store).
constexpr double kFlopsPerPoint = 38.0;
constexpr double kBytesPerPoint = 120.0;

}  // namespace

WaveSlab::WaveSlab(std::size_t nx, std::size_t ny, std::size_t nz,
                   double length, double c, double dt_factor, int part,
                   int parts, const InitialField& u0)
    : part_(part),
      ny_(ny),
      nz_(nz),
      lnx_(nx / static_cast<std::size_t>(parts)),
      my_(ny + 4),
      mz_(nz + 4),
      plane_(my_ * mz_),
      mx_(lnx_ + 4),
      first_(part == 0),
      last_(part + 1 == parts) {
  const double h = length / static_cast<double>(nx + 1);
  dt_ = dt_factor * 0.5 * h / (c * std::sqrt(3.0) * 1.16);
  cdt2_ = c * c * dt_ * dt_;
  ih2_ = 1.0 / (h * h);
  u_.assign(mx_ * plane_, 0.0);
  up_.assign(mx_ * plane_, 0.0);
  un_.assign(mx_ * plane_, 0.0);
  for (std::size_t a = 2; a < lnx_ + 2; ++a) {
    const std::size_t gi = static_cast<std::size_t>(part_) * lnx_ + (a - 2);
    const double x = h * static_cast<double>(gi + 1);
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t k = 0; k < nz_; ++k) {
        u_[idx(a, j + 2, k + 2)] = u0(x, h * double(j + 1), h * double(k + 1));
      }
    }
  }
}

void WaveSlab::fill_yz_walls() {
  double* u = u_.data();
  for (std::size_t a = 0; a < mx_; ++a) {
    for (std::size_t k = 0; k < mz_; ++k) {
      u[idx(a, 1, k)] = 0.0;
      u[idx(a, 0, k)] = -u[idx(a, 2, k)];
      u[idx(a, my_ - 2, k)] = 0.0;
      u[idx(a, my_ - 1, k)] = -u[idx(a, my_ - 3, k)];
    }
    for (std::size_t j = 0; j < my_; ++j) {
      u[idx(a, j, 1)] = 0.0;
      u[idx(a, j, 0)] = -u[idx(a, j, 2)];
      u[idx(a, j, mz_ - 2)] = 0.0;
      u[idx(a, j, mz_ - 1)] = -u[idx(a, j, mz_ - 3)];
    }
  }
}

// Global x walls: odd reflection (matches the serial solver).
void WaveSlab::fill_x_walls() {
  double* u = u_.data();
  if (first_) {
    for (std::size_t p = 0; p < plane_; ++p) {
      u[1 * plane_ + p] = 0.0;
      u[0 * plane_ + p] = -u[2 * plane_ + p];
    }
  }
  if (last_) {
    for (std::size_t p = 0; p < plane_; ++p) {
      u[(lnx_ + 2) * plane_ + p] = 0.0;
      u[(lnx_ + 3) * plane_ + p] = -u[(lnx_ + 1) * plane_ + p];
    }
  }
}

void WaveSlab::sweep(core::ExecContext& ctx, std::size_t a0, std::size_t a1,
                     Update update, double skew) {
  if (a0 >= a1) return;
  // Everything the hot loop reads is a local, so the stores through `next`
  // provably alias none of it and it all stays in registers.
  const std::size_t ny = ny_, nz = nz_, my = my_, si = plane_, sj = mz_;
  const double ih2 = ih2_, cdt2 = cdt2_;
  const double* u = u_.data();
  const double* prev = up_.data();
  auto for_points = [&](auto&& upd) {
    for (std::size_t a = a0; a < a1; ++a) {
      for (std::size_t j = 2; j < ny + 2; ++j) {
        for (std::size_t k = 2; k < nz + 2; ++k) {
          upd((a * my + j) * sj + k);
        }
      }
    }
  };
  if (update == Update::Taylor) {
    double* next = up_.data();
    for_points([&](std::size_t id) {
      next[id] = u[id] + 0.5 * cdt2 * laplacian4(u, id, si, sj, ih2);
    });
  } else {
    double* next = un_.data();
    for_points([&](std::size_t id) {
      next[id] = 2.0 * u[id] - prev[id] + cdt2 * laplacian4(u, id, si, sj, ih2);
    });
  }
  const auto n = static_cast<double>((a1 - a0) * ny * nz);
  ctx.record_kernel({kFlopsPerPoint * n * skew, kBytesPerPoint * n * skew});
}

void WaveSlab::rotate() {
  std::swap(up_, u_);
  std::swap(u_, un_);
}

void WaveSlab::gather(std::vector<double>& field) const {
  for (std::size_t a = 2; a < lnx_ + 2; ++a) {
    const std::size_t gi = static_cast<std::size_t>(part_) * lnx_ + (a - 2);
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t k = 0; k < nz_; ++k) {
        field[(gi * ny_ + j) * nz_ + k] = u_[idx(a, j + 2, k + 2)];
      }
    }
  }
}

void WaveSlab::save_state(std::vector<double>& out) const {
  out.clear();
  out.reserve(2 * u_.size());
  out.insert(out.end(), u_.begin(), u_.end());
  out.insert(out.end(), up_.begin(), up_.end());
}

void WaveSlab::restore_state(const std::vector<double>& in) {
  const auto m = static_cast<long>(u_.size());
  std::copy(in.begin(), in.begin() + m, u_.begin());
  std::copy(in.begin() + m, in.end(), up_.begin());
}

}  // namespace coe::stencil
