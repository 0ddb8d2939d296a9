#include "amr/euler.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace coe::amr {

namespace {

/// The conserved fields, and the scratch fields step() writes before
/// committing them.
constexpr const char* kCons[4] = {"rho", "mx", "my", "E"};
constexpr const char* kNew[4] = {"rho_new", "mx_new", "my_new", "E_new"};

struct Cons {
  double rho, mx, my, e;
};

Cons to_cons(const PrimState& s, double gamma) {
  const double e =
      s.p / (gamma - 1.0) + 0.5 * s.rho * (s.u * s.u + s.v * s.v);
  return {s.rho, s.rho * s.u, s.rho * s.v, e};
}

PrimState to_prim(const Cons& c, double gamma) {
  PrimState s;
  s.rho = c.rho;
  s.u = c.mx / c.rho;
  s.v = c.my / c.rho;
  s.p = (gamma - 1.0) * (c.e - 0.5 * c.rho * (s.u * s.u + s.v * s.v));
  return s;
}

double sound_speed(const PrimState& s, double gamma) {
  return std::sqrt(gamma * std::max(s.p, 1e-12) / s.rho);
}

std::array<double, 4> flux_x(const Cons& c, const PrimState& s) {
  return {c.mx, c.mx * s.u + s.p, c.my * s.u, (c.e + s.p) * s.u};
}

std::array<double, 4> flux_y(const Cons& c, const PrimState& s) {
  return {c.my, c.mx * s.v, c.my * s.v + s.p, (c.e + s.p) * s.v};
}

/// What the face fluxes read of one cell: its conserved state, its
/// physical fluxes along x and y, and its signal speeds |u| + c_s and
/// |v| + c_s. Built once per cell per step.
struct CellState {
  Cons u;
  std::array<double, 4> fx, fy;
  double ax, ay;
};

CellState cell_state(const Cons& c, double gamma) {
  const PrimState s = to_prim(c, gamma);
  const double cs = sound_speed(s, gamma);
  return {c, flux_x(c, s), flux_y(c, s), std::abs(s.u) + cs,
          std::abs(s.v) + cs};
}

/// Local Lax-Friedrichs flux across the face between cells l and r
/// along x (`xdir`) or y.
std::array<double, 4> face_flux(const CellState& l, const CellState& r,
                                bool xdir) {
  const auto& fl = xdir ? l.fx : l.fy;
  const auto& fr = xdir ? r.fx : r.fy;
  const double a = xdir ? std::max(l.ax, r.ax) : std::max(l.ay, r.ay);
  std::array<double, 4> f;
  const double ul[4] = {l.u.rho, l.u.mx, l.u.my, l.u.e};
  const double ur[4] = {r.u.rho, r.u.mx, r.u.my, r.u.e};
  for (int k = 0; k < 4; ++k) {
    f[k] = 0.5 * (fl[k] + fr[k]) - 0.5 * a * (ur[k] - ul[k]);
  }
  return f;
}

/// A patch's four conserved (or scratch) fields, looked up by name once.
struct PatchCons {
  PatchField &rho, &mx, &my, &e;

  PatchCons(Patch& patch, const char* const (&names)[4])
      : rho(patch.field(names[0])), mx(patch.field(names[1])),
        my(patch.field(names[2])), e(patch.field(names[3])) {}

  Cons at(std::int64_t i, std::int64_t j) const {
    return {rho.at(i, j), mx.at(i, j), my.at(i, j), e.at(i, j)};
  }
};

}  // namespace

const char* EulerSolver::kRho = kCons[0];
const char* EulerSolver::kMx = kCons[1];
const char* EulerSolver::kMy = kCons[2];
const char* EulerSolver::kE = kCons[3];

EulerSolver::EulerSolver(core::ExecContext& ctx, PatchLevel& level,
                         EulerConfig cfg)
    : ctx_(&ctx), level_(&level), cfg_(cfg) {
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    auto& patch = level_->patch(p);
    for (int k = 0; k < 4; ++k) {
      patch.add_field(kCons[k]);
      patch.add_field(kNew[k]);
    }
  }
}

void EulerSolver::init(
    const std::function<PrimState(std::int64_t, std::int64_t)>& f) {
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    auto& patch = level_->patch(p);
    PatchCons u(patch, kCons);
    const Box& b = patch.box();
    for (std::int64_t i = b.ilo; i <= b.ihi; ++i) {
      for (std::int64_t j = b.jlo; j <= b.jhi; ++j) {
        const Cons c = to_cons(f(i, j), cfg_.gamma);
        u.rho.at(i, j) = c.rho;
        u.mx.at(i, j) = c.mx;
        u.my.at(i, j) = c.my;
        u.e.at(i, j) = c.e;
      }
    }
  }
  t_ = 0.0;
}

double EulerSolver::compute_dt() const {
  double max_speed = 1e-12;
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    auto& patch = level_->patch(p);
    const PatchCons u(patch, kCons);
    const Box& b = patch.box();
    for (std::int64_t i = b.ilo; i <= b.ihi; ++i) {
      for (std::int64_t j = b.jlo; j <= b.jhi; ++j) {
        const PrimState s = to_prim(u.at(i, j), cfg_.gamma);
        const double c = sound_speed(s, cfg_.gamma);
        max_speed = std::max(max_speed,
                             std::max(std::abs(s.u), std::abs(s.v)) + c);
      }
    }
  }
  return cfg_.cfl * std::min(cfg_.dx, cfg_.dy) / max_speed;
}

void EulerSolver::step(double dt) {
  for (const char* f : kCons) level_->fill_ghosts(f);

  const double gamma = cfg_.gamma;
  const double dtdx = dt / cfg_.dx;
  const double dtdy = dt / cfg_.dy;
  // Each cell's state is built once: two rolling rows of states (indexed
  // by j - jlo + 1, so j = jlo - 1 and jhi + 1 fit) hold rows i and i + 1.
  // Each face flux is computed once: the y-face below a cell is carried
  // along j, and the x-faces left of row i are kept in one row buffer
  // (indexed by j) that each row overwrites with its right faces.
  std::vector<CellState> cur, next;
  std::vector<std::array<double, 4>> xface;
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    auto& patch = level_->patch(p);
    const Box& b = patch.box();
    const PatchCons u(patch, kCons);
    PatchCons unew(patch, kNew);

    // ~220 flops and ~320 bytes per cell (4 fields, 2 flux pairs).
    ctx_->record_kernel({220.0 * double(b.size()), 320.0 * double(b.size())});

    const std::size_t nj = static_cast<std::size_t>(b.nj());
    cur.resize(nj + 2);
    next.resize(nj + 2);
    xface.resize(nj);
    // States of row i: j in [jlo - 1, jhi + 1] when the row's cells are
    // updated, else (rows ilo - 1 and ihi + 1) only j in [jlo, jhi].
    auto load_row = [&](std::vector<CellState>& row, std::int64_t i,
                        bool interior) {
      const std::int64_t j0 = interior ? b.jlo - 1 : b.jlo;
      const std::int64_t j1 = interior ? b.jhi + 1 : b.jhi;
      for (std::int64_t j = j0; j <= j1; ++j) {
        row[std::size_t(j - b.jlo + 1)] = cell_state(u.at(i, j), gamma);
      }
    };
    load_row(next, b.ilo - 1, false);
    load_row(cur, b.ilo, true);
    for (std::size_t j = 0; j < nj; ++j) {
      xface[j] = face_flux(next[j + 1], cur[j + 1], true);
    }
    for (std::int64_t i = b.ilo; i <= b.ihi; ++i) {
      load_row(next, i + 1, i < b.ihi);
      std::array<double, 4> fyl = face_flux(cur[0], cur[1], false);
      for (std::size_t j = 0; j < nj; ++j) {
        const CellState& c = cur[j + 1];
        auto& fxl = xface[j];
        const auto fxr = face_flux(c, next[j + 1], true);
        const auto fyr = face_flux(c, cur[j + 2], false);
        const double uc[4] = {c.u.rho, c.u.mx, c.u.my, c.u.e};
        double un[4];
        for (int k = 0; k < 4; ++k) {
          un[k] = uc[k] - dtdx * (fxr[k] - fxl[k]) - dtdy * (fyr[k] - fyl[k]);
        }
        const std::int64_t jj = b.jlo + std::int64_t(j);
        unew.rho.at(i, jj) = un[0];
        unew.mx.at(i, jj) = un[1];
        unew.my.at(i, jj) = un[2];
        unew.e.at(i, jj) = un[3];
        fxl = fxr;
        fyl = fyr;
      }
      cur.swap(next);
    }
  }
  // Commit: the new interiors become the conserved fields' storage; each
  // conserved field keeps its own ghost ring.
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    auto& patch = level_->patch(p);
    for (int k = 0; k < 4; ++k) {
      patch.field(kCons[k]).swap_interior(patch.field(kNew[k]));
    }
  }
  t_ += dt;
}

std::size_t EulerSolver::advance(double t_end) {
  std::size_t steps = 0;
  while (t_ < t_end) {
    double dt = compute_dt();
    if (t_ + dt > t_end) dt = t_end - t_;
    step(dt);
    ++steps;
  }
  return steps;
}

double EulerSolver::integral(const char* field) const {
  // Neumaier-compensated sum. A plain running sum over a 768^2 level is
  // off by up to ~1e-12 relative, which is as large as a conservation
  // check's tolerance; the compensated one is within a few ulps.
  double sum = 0.0, comp = 0.0;
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    const auto& patch = level_->patch(p);
    const PatchField& f = patch.field(field);
    const Box& b = patch.box();
    for (std::int64_t i = b.ilo; i <= b.ihi; ++i) {
      for (std::int64_t j = b.jlo; j <= b.jhi; ++j) {
        const double x = f.at(i, j);
        const double t = sum + x;
        comp += std::abs(sum) >= std::abs(x) ? (sum - t) + x : (x - t) + sum;
        sum = t;
      }
    }
  }
  return (sum + comp) * cfg_.dx * cfg_.dy;
}

double EulerSolver::total_mass() const { return integral(kRho); }
double EulerSolver::total_energy() const { return integral(kE); }
double EulerSolver::total_momentum_x() const { return integral(kMx); }

PrimState EulerSolver::primitive_at(std::int64_t i, std::int64_t j) const {
  const Cons c{level_->value_at(kRho, i, j), level_->value_at(kMx, i, j),
               level_->value_at(kMy, i, j), level_->value_at(kE, i, j)};
  return to_prim(c, cfg_.gamma);
}

PrimState sod_state(std::int64_t i, std::int64_t i_mid) {
  if (i < i_mid) return {1.0, 0.0, 0.0, 1.0};
  return {0.125, 0.0, 0.0, 0.1};
}

}  // namespace coe::amr
