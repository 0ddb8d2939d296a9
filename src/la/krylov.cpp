#include "la/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "la/vector_ops.hpp"
#include "prof/span.hpp"

namespace coe::la {

namespace {

bool solved(const SolveOptions& opts, double rnorm, double r0) {
  return rnorm <= opts.abs_tol || rnorm <= opts.rel_tol * r0;
}

}  // namespace

Pcg::Pcg(core::ExecContext& ctx, const Operator& a, const Preconditioner& m,
         std::span<const double> b, std::span<double> x,
         const SolveOptions& opts, std::size_t row_lo, std::size_t row_hi)
    : ctx_(&ctx),
      a_(&a),
      m_(&m),
      b_(b),
      x_(x),
      opts_(opts),
      md_(m.diag()),
      lo_(std::min({row_lo, row_hi, a.rows()})),
      hi_(std::min(row_hi, a.rows())),
      fuse_kernels_(opts.fused && lo_ == 0 && hi_ == a.rows()),
      fuse_rounds_(opts.fused_reductions && opts.abft_every == 0),
      r_(a.rows()),
      z_(a.rows()),
      p_(a.rows()),
      ap_(a.rows()) {}

// Declares the solver's working set to the residency arena (no-op when none
// is attached). The matrix and vectors are re-touched every iteration, so
// under capacity pressure the arena prices the refault traffic an
// oversubscribed GPU would see.
void Pcg::touch_operands() {
  const double vb = static_cast<double>(r_.size()) * 8.0;
  ctx_->touch_device("cg.A", a_->footprint_bytes(), core::MemAccess::Read);
  ctx_->touch_device("cg.b", vb, core::MemAccess::Read);
  ctx_->touch_device("cg.x", vb, core::MemAccess::Write);
  ctx_->touch_device("cg.r", vb, core::MemAccess::Write);
  ctx_->touch_device("cg.z", vb, core::MemAccess::Write);
  ctx_->touch_device("cg.p", vb, core::MemAccess::Write);
  ctx_->touch_device("cg.ap", vb, core::MemAccess::Write);
}

double Pcg::dot_rows(std::span<const double> u, std::span<const double> v) {
  return dot(*ctx_, u.subspan(lo_, hi_ - lo_), v.subspan(lo_, hi_ - lo_));
}

bool Pcg::stage(Phase next, std::size_t at, std::size_t width) {
  phase_ = next;
  red_at_ = at;
  red_width_ = width;
  ++rounds_;
  return true;
}

void Pcg::stage_start() {
  touch_operands();
  {
    prof::Scope s(opts_.profiler, ctx_, "spmv");
    a_->apply(*ctx_, x_, ap_);
  }
  {
    prof::Scope s(opts_.profiler, ctx_, "blas1");
    axpby(*ctx_, 1.0, b_, -1.0, ap_, r_);
  }
  {
    prof::Scope s(opts_.profiler, ctx_, "precond");
    m_->apply(*ctx_, r_, z_);
  }
  copy(*ctx_, z_, p_);
  red_[0] = dot_rows(r_, z_);
  red_[1] = dot_rows(r_, r_);
  stage(fuse_rounds_ ? Phase::Start : Phase::StartRz, 0, fuse_rounds_ ? 2 : 1);
}

bool Pcg::advance() {
  switch (phase_) {
    case Phase::Idle:
      return !done() && search();
    case Phase::StartRz:  // r.z reduced; ||r||^2 is the second round
      return stage(Phase::Start, 1, 1);
    case Phase::Start:
      rz_ = red_[0];
      r0_ = std::sqrt(red_[1]);
      rnorm_ = r0_;
      phase_ = Phase::Idle;
      if (solved(opts_, r0_, r0_) || r0_ == 0.0) status_ = Status::Converged;
      return false;
    case Phase::Pap:
      return update();
    case Phase::Rr:
      return check();
    case Phase::TrueResidual: {
      // The recursion's rnorm must track the true residual.
      const double tnorm = std::sqrt(red_[0]);
      ++checks_;
      const double mismatch = std::abs(tnorm - rnorm_);
      if (!(mismatch <= opts_.abft_tol * std::max(tnorm, rnorm_))) {
        // Adopt the recomputed residual and drop the (possibly corrupt)
        // search direction; beta = 0 restarts the recursion.
        ++trips_;
        copy(*ctx_, z_, r_);
        rnorm_ = tnorm;
        restart_ = true;
      }
      span_.reset();
      return close();
    }
    case Phase::Rz:
      span_.reset();
      rz_new_ = red_[0];
      direction();
      return false;
  }
  return false;
}

bool Pcg::search() {
  touch_operands();
  {
    prof::Scope s(opts_.profiler, ctx_, "spmv");
    a_->apply(*ctx_, p_, ap_);
  }
  span_.emplace(opts_.profiler, ctx_, "blas1");
  red_[0] = dot_rows(p_, ap_);
  return stage(Phase::Pap, 0, 1);
}

bool Pcg::update() {
  const double pap = red_[0];
  if (pap == 0.0) {
    span_.reset();
    status_ = Status::BrokeDown;
    phase_ = Phase::Idle;
    return false;
  }
  const double alpha = rz_ / pap;
  auto& x = x_;
  auto& r = r_;
  auto& p = p_;
  auto& ap = ap_;
  if (fuse_kernels_) {
    // x += alpha p, r -= alpha ap, and the r.r reduction share one launch;
    // r's store+reload between the update and the reduction stays in
    // registers (one 8-byte elision per element).
    red_[0] = ctx_->fused(r.size())
                  .then({2.0, 24.0},
                        [&](std::size_t i) { x[i] += alpha * p[i]; })
                  .then({2.0, 24.0},
                        [&](std::size_t i) { r[i] -= alpha * ap[i]; })
                  .elide(8.0)
                  .reduce_sum({2.0, 16.0},
                              [&](std::size_t i) { return r[i] * r[i]; });
  } else {
    axpy(*ctx_, alpha, p, x);
    axpy(*ctx_, -alpha, ap, r);
    red_[0] = dot_rows(r, r);
  }
  span_.reset();
  if (!fuse_rounds_) return stage(Phase::Rr, 0, 1);
  // Comm-avoiding round fusion: compute the preconditioned product locally
  // now, then reduce {||r||^2, r.z} in ONE 2-wide round. Each element
  // crosses the wire exactly as its own 1-wide round would, so the scalars
  // — and the whole solve — stay bitwise identical.
  span_.emplace(opts_.profiler, ctx_, "precond");
  red_[1] = precondition();
  return stage(Phase::Rr, 0, 2);
}

bool Pcg::check() {
  span_.reset();
  rnorm_ = std::sqrt(red_[0]);
  have_rz_new_ = fuse_rounds_;
  if (have_rz_new_) rz_new_ = red_[1];
  restart_ = false;
  if (opts_.abft_every > 0 && (it_ + 1) % opts_.abft_every == 0) {
    // ABFT residual guard. z is free here (fully rewritten by the precond
    // stage).
    span_.emplace(opts_.profiler, ctx_, "abft");
    a_->apply(*ctx_, x_, ap_);
    axpby(*ctx_, 1.0, b_, -1.0, ap_, z_);
    red_[0] = dot_rows(z_, z_);
    return stage(Phase::TrueResidual, 0, 1);
  }
  return close();
}

bool Pcg::close() {
  ++it_;
  if (solved(opts_, rnorm_, r0_)) {
    status_ = Status::Converged;
    phase_ = Phase::Idle;
    return false;
  }
  if (have_rz_new_) {
    direction();
    return false;
  }
  span_.emplace(opts_.profiler, ctx_, "precond");
  red_[0] = precondition();
  return stage(Phase::Rz, 0, 1);
}

void Pcg::direction() {
  const double beta = restart_ ? 0.0 : rz_new_ / rz_;
  rz_ = rz_new_;
  {
    prof::Scope s(opts_.profiler, ctx_, "blas1");
    xpby(*ctx_, z_, beta, p_);
  }
  phase_ = Phase::Idle;
}

// Fused iterations need an elementwise preconditioner to fold the apply
// into the r.z kernel; anything else falls back to apply() + dot.
double Pcg::precondition() {
  if (fuse_kernels_ && !md_.empty()) {
    auto& r = r_;
    auto& z = z_;
    auto& md = md_;
    return ctx_->fused(r.size())
        .then({1.0, 24.0}, [&](std::size_t i) { z[i] = r[i] / md[i]; })
        .elide(8.0)
        .reduce_sum({2.0, 16.0}, [&](std::size_t i) { return r[i] * z[i]; });
  }
  m_->apply(*ctx_, r_, z_);
  return dot_rows(r_, z_);
}

void Pcg::start() {
  stage_start();
  do {
    if (opts_.reduce) opts_.reduce(reduction());
  } while (advance());
}

void Pcg::step() {
  while (advance()) {
    if (opts_.reduce) opts_.reduce(reduction());
  }
}

SolveResult Pcg::result() const {
  SolveResult res;
  res.converged = status_ == Status::Converged;
  res.iterations = it_;
  res.final_residual = rnorm_;
  res.initial_residual = r0_;
  res.abft_checks = checks_;
  res.abft_trips = trips_;
  res.reductions = rounds_;
  return res;
}

std::vector<std::pair<std::string, std::span<double>>> Pcg::sdc_targets() {
  return {{"cg.x", x_},
          {"cg.r", std::span<double>(r_)},
          {"cg.z", std::span<double>(z_)},
          {"cg.p", std::span<double>(p_)}};
}

void Pcg::save_state(std::vector<double>& out) const {
  out.clear();
  out.push_back(rz_);
  out.push_back(rnorm_);
  out.push_back(static_cast<double>(it_));
  out.push_back(static_cast<double>(static_cast<int>(status_)));
  out.insert(out.end(), x_.begin(), x_.end());
  out.insert(out.end(), r_.begin(), r_.end());
  out.insert(out.end(), z_.begin(), z_.end());
  out.insert(out.end(), p_.begin(), p_.end());
  if (opts_.rel_tol > 0.0) out.push_back(r0_);
}

void Pcg::restore_state(const std::vector<double>& in) {
  const double* c = in.data();
  rz_ = *c++;
  rnorm_ = *c++;
  it_ = static_cast<std::size_t>(*c++);
  status_ = static_cast<Status>(static_cast<int>(*c++));
  for (std::span<double> v : {x_, std::span<double>(r_), std::span<double>(z_),
                              std::span<double>(p_)}) {
    std::copy(c, c + v.size(), v.begin());
    c += v.size();
  }
  if (opts_.rel_tol > 0.0) r0_ = *c;
  phase_ = Phase::Idle;
  span_.reset();
}

SolveResult cg(core::ExecContext& ctx, const Operator& a,
               const Preconditioner& m, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts) {
  prof::Scope solve_span(opts.profiler, &ctx, "cg");
  Pcg pcg(ctx, a, m, b, x, opts);
  pcg.start();
  while (!pcg.done() && pcg.iteration() < opts.max_iters) pcg.step();
  return pcg.result();
}

SolveResult bicgstab(core::ExecContext& ctx, const Operator& a,
                     const Preconditioner& m, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  const std::size_t n = a.rows();
  std::vector<double> r(n), r0hat(n), p(n), v(n), s(n), t(n), phat(n), shat(n);

  a.apply(ctx, x, v);
  axpby(ctx, 1.0, b, -1.0, v, r);
  copy(ctx, r, r0hat);
  copy(ctx, r, p);

  const double rnorm0 = norm2(ctx, r);
  SolveResult res;
  res.initial_residual = rnorm0;
  res.final_residual = rnorm0;
  if (solved(opts, rnorm0, rnorm0) || rnorm0 == 0.0) {
    res.converged = true;
    return res;
  }

  double rho = dot(ctx, r0hat, r);
  for (std::size_t it = 1; it <= opts.max_iters; ++it) {
    m.apply(ctx, p, phat);
    a.apply(ctx, phat, v);
    const double r0v = dot(ctx, r0hat, v);
    if (r0v == 0.0) break;
    const double alpha = rho / r0v;
    axpby(ctx, 1.0, r, -alpha, v, s);
    double snorm = norm2(ctx, s);
    res.iterations = it;
    if (solved(opts, snorm, rnorm0)) {
      axpy(ctx, alpha, phat, x);
      res.final_residual = snorm;
      res.converged = true;
      return res;
    }
    m.apply(ctx, s, shat);
    a.apply(ctx, shat, t);
    const double tt = dot(ctx, t, t);
    if (tt == 0.0) break;
    const double omega = dot(ctx, t, s) / tt;
    axpy(ctx, alpha, phat, x);
    axpy(ctx, omega, shat, x);
    axpby(ctx, 1.0, s, -omega, t, r);
    const double rnorm = norm2(ctx, r);
    res.final_residual = rnorm;
    if (solved(opts, rnorm, rnorm0)) {
      res.converged = true;
      return res;
    }
    const double rho_new = dot(ctx, r0hat, r);
    if (rho_new == 0.0 || omega == 0.0) break;
    const double beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    // p = r + beta * (p - omega*v)
    ctx.forall(n, {4.0, 32.0}, [&](std::size_t i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    });
  }
  return res;
}

SolveResult gmres(core::ExecContext& ctx, const Operator& a,
                  const Preconditioner& m, std::span<const double> b,
                  std::span<double> x, std::size_t restart,
                  const SolveOptions& opts) {
  // Restart length 0 leaves no inner iteration to make progress with.
  if (restart == 0) throw std::invalid_argument("la::gmres: restart == 0");
  const std::size_t n = a.rows();
  const std::size_t k = restart;
  std::vector<std::vector<double>> v(k + 1, std::vector<double>(n));
  std::vector<double> h((k + 1) * k, 0.0);
  std::vector<double> cs(k), sn(k), g(k + 1), w(n), z(n);

  SolveResult res;
  double r0 = -1.0;
  std::size_t total_it = 0;

  for (std::size_t cycle = 0; total_it < opts.max_iters; ++cycle) {
    a.apply(ctx, x, w);
    axpby(ctx, 1.0, b, -1.0, w, v[0]);
    double beta = norm2(ctx, v[0]);
    if (r0 < 0.0) {
      r0 = beta;
      res.initial_residual = beta;
    }
    res.final_residual = beta;
    if (solved(opts, beta, r0) || beta == 0.0) {
      res.converged = true;
      return res;
    }
    scale(ctx, 1.0 / beta, v[0]);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    std::size_t j = 0;
    for (; j < k && total_it < opts.max_iters; ++j, ++total_it) {
      m.apply(ctx, v[j], z);
      a.apply(ctx, z, w);
      // Modified Gram-Schmidt.
      for (std::size_t i = 0; i <= j; ++i) {
        const double hij = dot(ctx, v[i], w);
        h[i * k + j] = hij;
        axpy(ctx, -hij, v[i], w);
      }
      const double hnext = norm2(ctx, w);
      h[(j + 1) * k + j] = hnext;
      if (hnext != 0.0) {
        copy(ctx, w, v[j + 1]);
        scale(ctx, 1.0 / hnext, v[j + 1]);
      }
      // Apply previous Givens rotations to the new column.
      for (std::size_t i = 0; i < j; ++i) {
        const double t1 = cs[i] * h[i * k + j] + sn[i] * h[(i + 1) * k + j];
        const double t2 = -sn[i] * h[i * k + j] + cs[i] * h[(i + 1) * k + j];
        h[i * k + j] = t1;
        h[(i + 1) * k + j] = t2;
      }
      // New rotation.
      const double denom =
          std::sqrt(h[j * k + j] * h[j * k + j] + hnext * hnext);
      if (denom == 0.0) {
        ++j;
        break;
      }
      cs[j] = h[j * k + j] / denom;
      sn[j] = hnext / denom;
      h[j * k + j] = denom;
      h[(j + 1) * k + j] = 0.0;
      g[j + 1] = -sn[j] * g[j];
      g[j] *= cs[j];
      res.iterations = total_it + 1;
      res.final_residual = std::abs(g[j + 1]);
      if (solved(opts, res.final_residual, r0)) {
        ++j;
        res.converged = true;
        break;
      }
    }

    // Solve the small triangular system and update x through the
    // preconditioner (right preconditioning: x += M^{-1} V y).
    std::vector<double> y(j, 0.0);
    for (std::size_t i = j; i-- > 0;) {
      double s = g[i];
      for (std::size_t l = i + 1; l < j; ++l) s -= h[i * k + l] * y[l];
      y[i] = s / h[i * k + i];
    }
    std::fill(w.begin(), w.end(), 0.0);
    for (std::size_t i = 0; i < j; ++i) axpy(ctx, y[i], v[i], w);
    m.apply(ctx, w, z);
    axpy(ctx, 1.0, z, x);

    if (res.converged) return res;
  }
  return res;
}

}  // namespace coe::la
