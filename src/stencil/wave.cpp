#include "stencil/wave.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "prof/span.hpp"
#include "stencil/slab.hpp"

namespace coe::stencil {

double PointSource::value(double t) const {
  // Ricker wavelet.
  const double arg = M_PI * freq * (t - t0);
  return amplitude * (1.0 - 2.0 * arg * arg) * std::exp(-arg * arg);
}

WaveSolver::WaveSolver(core::ExecContext& ctx, std::size_t nx, std::size_t ny,
                       std::size_t nz, double length, double c,
                       WaveOptions opts)
    : ctx_(&ctx), nx_(nx), ny_(ny), nz_(nz),
      h_(length / static_cast<double>(nx + 1)), c_(c), opts_(opts),
      c_max_(c) {
  const std::size_t total = (nx_ + 4) * (ny_ + 4) * (nz_ + 4);
  u_.assign(total, 0.0);
  u_prev_.assign(total, 0.0);
  u_next_.assign(total, 0.0);
  lap_.assign(total, 0.0);
  shake_.assign(nx_ * ny_, 0.0);
}

double WaveSolver::stable_dt() const {
  // 4th-order stencil CFL in 3D; 0.5 safety; heterogeneous media use the
  // fastest material.
  return 0.5 * h_ / (c_max_ * std::sqrt(3.0) * 1.16);
}

void WaveSolver::set_wave_speed(
    const std::function<double(double, double, double)>& c) {
  c2_field_.assign(u_.size(), c_ * c_);
  c_max_ = 0.0;
  for (std::size_t i = 0; i < nx_; ++i) {
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t k = 0; k < nz_; ++k) {
        const double x = h_ * static_cast<double>(i + 1);
        const double y = h_ * static_cast<double>(j + 1);
        const double z = h_ * static_cast<double>(k + 1);
        const double ci = c(x, y, z);
        c2_field_[idx(i + 2, j + 2, k + 2)] = ci * ci;
        c_max_ = std::max(c_max_, ci);
      }
    }
  }
}

void WaveSolver::set_initial(
    const std::function<double(double, double, double)>& u0,
    const std::function<double(double, double, double)>& v0, double dt) {
  for (std::size_t i = 0; i < nx_; ++i) {
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t k = 0; k < nz_; ++k) {
        const double x = h_ * static_cast<double>(i + 1);
        const double y = h_ * static_cast<double>(j + 1);
        const double z = h_ * static_cast<double>(k + 1);
        const std::size_t id = idx(i + 2, j + 2, k + 2);
        u_[id] = u0(x, y, z);
        u_prev_[id] = u_[id] - dt * v0(x, y, z);
      }
    }
  }
  // Second-order Taylor backstep: u(-dt) ~= u0 - dt v0 + dt^2/2 c^2 lap u0.
  fill_ghosts();
  const double ih2 = 1.0 / (h_ * h_);
  const std::size_t sj = nz_ + 4;
  const std::size_t si = (ny_ + 4) * (nz_ + 4);
  for (std::size_t i = 0; i < nx_; ++i) {
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t k = 0; k < nz_; ++k) {
        const std::size_t id = idx(i + 2, j + 2, k + 2);
        const double lap =
            (kC2 * (u_[id - 2 * si] + u_[id + 2 * si]) +
             kC1 * (u_[id - si] + u_[id + si]) +
             kC2 * (u_[id - 2 * sj] + u_[id + 2 * sj]) +
             kC1 * (u_[id - sj] + u_[id + sj]) +
             kC2 * (u_[id - 2] + u_[id + 2]) +
             kC1 * (u_[id - 1] + u_[id + 1]) + 3.0 * kC0 * u_[id]) *
            ih2;
        u_prev_[id] += 0.5 * dt * dt * c_ * c_ * lap;
      }
    }
  }
}

double WaveSolver::bytes_per_point() const {
  // (heterogeneous media add one c^2 load per point, charged below)
  // Naive: 13 stencil loads miss cache for 3 of 5 planes per axis, plus
  // u_prev load and u_next store. Tiled: each value loaded ~once from main
  // memory (plus prev/next traffic).
  const double naive = (13.0 + 1.0 + 1.0) * 8.0;
  const double tiled = (1.3 + 1.0 + 1.0) * 8.0;
  double b = opts_.tiled ? tiled : naive;
  if (!opts_.fused) b += 2.0 * 8.0;  // extra lap write + read round trip
  return b;
}

double WaveSolver::flops_per_point() const {
  return 3.0 * 10.0 + 8.0;  // 5-point MACs per axis + time update
}

void WaveSolver::fill_ghosts() {
  // Zero Dirichlet walls sit between the ghost frame and the interior
  // (array index 1 along each axis); odd reflection keeps the 4th-order
  // stencil accurate at the boundary.
  const std::size_t mx = nx_ + 4, my = ny_ + 4, mz = nz_ + 4;
  for (std::size_t j = 0; j < my; ++j) {
    for (std::size_t k = 0; k < mz; ++k) {
      u_[idx(1, j, k)] = 0.0;
      u_[idx(0, j, k)] = -u_[idx(2, j, k)];
      u_[idx(mx - 2, j, k)] = 0.0;
      u_[idx(mx - 1, j, k)] = -u_[idx(mx - 3, j, k)];
    }
  }
  for (std::size_t i = 0; i < mx; ++i) {
    for (std::size_t k = 0; k < mz; ++k) {
      u_[idx(i, 1, k)] = 0.0;
      u_[idx(i, 0, k)] = -u_[idx(i, 2, k)];
      u_[idx(i, my - 2, k)] = 0.0;
      u_[idx(i, my - 1, k)] = -u_[idx(i, my - 3, k)];
    }
  }
  for (std::size_t i = 0; i < mx; ++i) {
    for (std::size_t j = 0; j < my; ++j) {
      u_[idx(i, j, 1)] = 0.0;
      u_[idx(i, j, 0)] = -u_[idx(i, j, 2)];
      u_[idx(i, j, mz - 2)] = 0.0;
      u_[idx(i, j, mz - 1)] = -u_[idx(i, j, mz - 3)];
    }
  }
}

void WaveSolver::apply_laplacian_and_update(double dt) {
  const double ih2 = 1.0 / (h_ * h_);
  const double cdt2_const = c_ * c_ * dt * dt;
  const double dt2 = dt * dt;
  const bool hetero = heterogeneous();
  const std::size_t sj = nz_ + 4;
  const std::size_t si = (ny_ + 4) * (nz_ + 4);

  // The RAJA path runs the same numerics at a modeled ~30% overhead.
  const double abstraction = opts_.raja_abstraction ? 1.3 : 1.0;

  const double* u = u_.data();
  auto lap_at = [&](std::size_t id) { return laplacian4(u, id, si, sj, ih2); };

  auto cdt2_at = [&](std::size_t id) {
    return hetero ? c2_field_[id] * dt2 : cdt2_const;
  };
  if (opts_.fused) {
    // One kernel via the fusion builder: Laplacian + leapfrog update in a
    // single launch, the per-point lap store+reload elided. The stage
    // workloads sum (after elision) to exactly `w`, the same total the
    // hand-fused kernel charged, so the optimization ladder is unchanged.
    const hsim::Workload w_lap{
        abstraction * (flops_per_point() - 8.0),
        abstraction * (bytes_per_point() - 16.0 + (hetero ? 8.0 : 0.0))};
    const hsim::Workload w_upd{abstraction * 8.0, abstraction * 32.0};
    ctx_->fused3(nx_, ny_, nz_)
        .then(w_lap,
              [&](std::size_t i, std::size_t j, std::size_t k) {
                const std::size_t id = idx(i + 2, j + 2, k + 2);
                lap_[id] = lap_at(id);
              })
        .then(w_upd,
              [&](std::size_t i, std::size_t j, std::size_t k) {
                const std::size_t id = idx(i + 2, j + 2, k + 2);
                u_next_[id] =
                    2.0 * u_[id] - u_prev_[id] + cdt2_at(id) * lap_[id];
              })
        .elide(abstraction * 16.0)
        .launch();
  } else {
    // Two kernels with an intermediate array (the unfused baseline).
    const hsim::Workload w1{flops_per_point() - 8.0, bytes_per_point() - 16.0};
    ctx_->forall3(nx_, ny_, nz_, w1, [&](std::size_t i, std::size_t j,
                                         std::size_t k) {
      const std::size_t id = idx(i + 2, j + 2, k + 2);
      lap_[id] = lap_at(id);
    });
    ctx_->forall3(nx_, ny_, nz_, {8.0, 32.0}, [&](std::size_t i,
                                                  std::size_t j,
                                                  std::size_t k) {
      const std::size_t id = idx(i + 2, j + 2, k + 2);
      u_next_[id] = 2.0 * u_[id] - u_prev_[id] + cdt2_at(id) * lap_[id];
    });
  }
}

void WaveSolver::apply_forcing(double dt, bool skip_transfer) {
  if (sources_.empty()) return;
  const double dt2 = dt * dt;
  if (!opts_.forcing_on_device && !skip_transfer) {
    // Host computes the source values and ships them over per step. The
    // host-side write marks the staging buffer dirty so an attached arena
    // never elides this genuinely-fresh upload.
    const double b = static_cast<double>(sources_.size()) * 16.0;
    ctx_->touch_host("wave.forcing", b, core::MemAccess::Write);
    ctx_->upload("wave.forcing", b);
  }
  ctx_->forall(sources_.size(), {20.0, 48.0}, [&](std::size_t s) {
    const auto& src = sources_[s];
    u_next_[idx(src.i + 2, src.j + 2, src.k + 2)] +=
        dt2 * src.value(t_ + dt);
  });
}

void WaveSolver::step(double dt) {
  // Streamed mode reproduces SW4's forcing-offload overlap: the upload of
  // host-computed source values rides stream 1 concurrently with the
  // stencil on stream 0; only the forcing kernel (which touches u_next_)
  // waits on it.
  const bool stream_offload =
      opts_.use_streams && !opts_.forcing_on_device && !sources_.empty();
  prof::Scope step_span(opts_.profiler, ctx_, "wave_step");
  // Declare the step's device working set to the residency arena (no-op
  // without one): the three rotating fields plus the Laplacian scratch, and
  // the c^2 field when the medium is heterogeneous. Under an over-committed
  // arena these touches trigger priced evictions/refaults.
  const double fb = static_cast<double>(u_.size()) * 8.0;
  ctx_->touch_device("wave.u", fb, core::MemAccess::Read);
  ctx_->touch_device("wave.u_prev", fb, core::MemAccess::Read);
  ctx_->touch_device("wave.u_next", fb, core::MemAccess::Write);
  if (!opts_.fused) ctx_->touch_device("wave.lap", fb, core::MemAccess::Write);
  if (heterogeneous())
    ctx_->touch_device("wave.c2", fb, core::MemAccess::Read);
  core::ExecContext::StreamEvent upload_done{};
  if (stream_offload) {
    prof::Scope s(opts_.profiler, ctx_, "forcing_upload");
    ctx_->stream(1);
    const double b = static_cast<double>(sources_.size()) * 16.0;
    ctx_->touch_host("wave.forcing", b, core::MemAccess::Write);
    ctx_->upload("wave.forcing", b);
    upload_done = ctx_->record_event();
    ctx_->stream(0);
  }
  {
    prof::Scope s(opts_.profiler, ctx_, "stencil");
    apply_laplacian_and_update(dt);
  }
  {
    prof::Scope s(opts_.profiler, ctx_, "forcing");
    if (stream_offload) ctx_->wait_event(upload_done);
    apply_forcing(dt, /*skip_transfer=*/stream_offload);
  }
  std::swap(u_prev_, u_);
  std::swap(u_, u_next_);
  // Refresh the ghost shell of the field that just rotated in. Doing this at
  // the end of the step (rather than at the start of the stencil) keeps the
  // logical state Markov: u's ghosts are always a function of its own
  // interior, never stale bytes inherited from the scratch buffer's previous
  // rotation. Checkpoint/restore plus replay is then bitwise reproducible.
  fill_ghosts();
  t_ += dt;
  ++steps_;
  // Track the surface (k = 0 plane) shake map.
  auto shake = [&](std::size_t i, std::size_t j) {
    const double v = std::abs(u_[idx(i + 2, j + 2, 2)]);
    double& m = shake_[i * ny_ + j];
    if (v > m) m = v;
  };
  prof::Scope shake_span(opts_.profiler, ctx_, "shake");
  ctx_->touch_device("wave.shake",
                     static_cast<double>(shake_.size()) * 8.0,
                     core::MemAccess::Write);
  if (opts_.use_streams) {
    // The shake map only reads the settled field, so on its own stream it
    // overlaps the NEXT step's stencil instead of extending the critical
    // path; the event keeps it ordered after this step's forcing.
    const auto field_done = ctx_->record_event();
    ctx_->stream(2);
    ctx_->wait_event(field_done);
    ctx_->forall2(nx_, ny_, {2.0, 24.0}, shake);
    ctx_->stream(0);
  } else {
    ctx_->forall2(nx_, ny_, {2.0, 24.0}, shake);
  }
}

double WaveSolver::at(std::size_t i, std::size_t j, std::size_t k) const {
  return u_[idx(i + 2, j + 2, k + 2)];
}

double WaveSolver::max_abs() const {
  double m = 0.0;
  for (std::size_t i = 0; i < nx_; ++i) {
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t k = 0; k < nz_; ++k) {
        m = std::max(m, std::abs(at(i, j, k)));
      }
    }
  }
  return m;
}

double WaveSolver::field_norm2() {
  auto& u = u_;
  auto& up = u_prev_;
  return ctx_->reduce_sum(u.size(), {4.0, 16.0}, [&](std::size_t i) {
    return u[i] * u[i] + up[i] * up[i];
  });
}

std::vector<std::pair<std::string, std::span<double>>>
WaveSolver::sdc_targets() {
  return {{"wave.u", std::span<double>(u_)},
          {"wave.u_prev", std::span<double>(u_prev_)}};
}

void WaveSolver::save_state(std::vector<double>& out) const {
  out.clear();
  out.reserve(2 + u_.size() + u_prev_.size() + shake_.size());
  out.push_back(t_);
  out.push_back(static_cast<double>(steps_));
  out.insert(out.end(), u_.begin(), u_.end());
  out.insert(out.end(), u_prev_.begin(), u_prev_.end());
  out.insert(out.end(), shake_.begin(), shake_.end());
}

void WaveSolver::restore_state(const std::vector<double>& in) {
  const double* c = in.data();
  t_ = *c++;
  steps_ = static_cast<std::size_t>(*c++);
  std::copy(c, c + u_.size(), u_.begin());
  c += u_.size();
  std::copy(c, c + u_prev_.size(), u_prev_.begin());
  c += u_prev_.size();
  std::copy(c, c + shake_.size(), shake_.begin());
}

double halo_exchange_time(const hsim::ClusterModel& net, std::size_t n) {
  // Six faces, 2-deep ghosts, 8-byte values; sends overlap in 3 phases.
  const double face_bytes = 2.0 * 8.0 * static_cast<double>(n) *
                            static_cast<double>(n);
  return 3.0 * 2.0 * net.p2p(static_cast<std::size_t>(face_bytes));
}

}  // namespace coe::stencil
