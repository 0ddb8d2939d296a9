#pragma once
// Krylov solvers (the hypre Krylov-layer substitute): preconditioned CG for
// SPD systems, BiCGStab and restarted GMRES for nonsymmetric ones (Cretin's
// rate matrices, the cuSPARSE-built iterative solver of Section 4.3).

#include <array>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "la/csr.hpp"
#include "la/operator.hpp"
#include "prof/span.hpp"
#include "resil/checkpoint.hpp"

namespace coe::la {

struct SolveOptions {
  std::size_t max_iters = 1000;
  double rel_tol = 1e-8;
  double abs_tol = 0.0;
  /// CG only: fuse the iteration's vector kernels (both axpy updates plus
  /// the residual reduction into one launch; the elementwise-preconditioner
  /// apply plus the r.z reduction into another), so the five BLAS-1
  /// launches per iteration become two. Pure launch-structure/pricing
  /// change — the arithmetic per element is unchanged, so results are
  /// bitwise identical to the unfused path on deterministic backends.
  bool fused = false;
  /// Optional span sink. When set, cg() wraps the solve in a "cg"
  /// prof::Scope with "spmv" / "precond" / "blas1" children, so profiled
  /// benches get a per-stage predicted-vs-measured skew for the solver.
  prof::Profiler* profiler = nullptr;
  /// CG only: ABFT residual guard. Every `abft_every` iterations (0:
  /// never) the true residual b - A x is recomputed and compared against
  /// the recursion's residual norm; a relative mismatch beyond `abft_tol`
  /// counts as a trip, and the recursion restarts from the recomputed
  /// residual — self-healing against silent corruption of the Krylov
  /// vectors (the iterate itself is healed only insofar as CG re-converges;
  /// bitwise recovery needs the guard/resil rollback path). The extra
  /// SpMV + reductions are priced like any other work, so the detection
  /// tax is visible in simulated time.
  std::size_t abft_every = 0;
  double abft_tol = 1e-6;
  /// Global-reduction hook for distributed CG: every scalar produced by a
  /// dot/norm (pap, ||r||^2, r.z, the ABFT true-residual norm) is passed
  /// through it before use, so ranks running CG over row slices of one
  /// system can plug in a collective (e.g. net::allreduce_sum on their
  /// communicator). Unset = single-domain solve, values pass through
  /// untouched. The hook must reduce elementwise and identically on all
  /// ranks. Only CG (cg() and Pcg) honors it. (The `= {}` lets a
  /// designated initializer omit it without -Wmissing-field-initializers.)
  std::function<void(std::span<double>)> reduce = {};
  /// CG only, comm-avoiding: combine the iteration's two reduction rounds
  /// (the ||r||^2 convergence check and the preconditioned r.z product)
  /// into ONE 2-wide call of `reduce` per iteration, halving the
  /// latency-bound collective count. The preconditioner apply moves before
  /// the convergence check (one elementwise apply of wasted work on the
  /// final iteration); every element is still reduced exactly as the
  /// two-round path reduces it, so results are bitwise identical.
  /// Ignored when abft_every > 0 (the guard consumes z mid-iteration).
  bool fused_reductions = false;
};

struct SolveResult {
  bool converged = false;
  std::size_t iterations = 0;
  double final_residual = 0.0;
  double initial_residual = 0.0;
  std::size_t abft_checks = 0;  ///< true-residual recomputations performed
  std::size_t abft_trips = 0;   ///< checks that forced a recursion restart
  std::size_t reductions = 0;   ///< global reduction rounds (cg only)
};

/// The preconditioned-CG iteration every CG driver runs: cg() loops it to
/// convergence, guarded runs step it under resil::run_resilient with the
/// whole recursion checkpointable, and survivable runs hold one instance per
/// part (DESIGN.md §11.2, §13.1, §17.2).
///
/// The iteration is split into phases at its reduction points: the start
/// stages {r.z, ||r||^2}; an iteration stages p.Ap, then ||r||^2 (with r.z
/// when `fused_reductions` joins the rounds), then the ABFT check's
/// true-residual norm and r.z as the options require. Each phase stages its
/// partial sums — dots over rows [row_lo, row_hi) — in reduction(); the
/// caller reduces them in place, one round per staged buffer, and calls
/// advance(). start() and step() do the same through SolveOptions::reduce.
/// Vector updates cover every row, so a row-slice part holds a full replica
/// and only the dots are split.
class Pcg final : public resil::Checkpointable {
 public:
  /// `b` and `x` (the initial guess; receives the iterate) must outlive the
  /// object. No work is done until stage_start()/start().
  Pcg(core::ExecContext& ctx, const Operator& a, const Preconditioner& m,
      std::span<const double> b, std::span<double> x,
      const SolveOptions& opts = {}, std::size_t row_lo = 0,
      std::size_t row_hi = std::numeric_limits<std::size_t>::max());

  /// r = b - A x, z = M r, p = z; stages {r.z, ||r||^2} (two rounds unless
  /// `fused_reductions`).
  void stage_start();
  /// Consumes the reduced round and runs to the next reduction point. True
  /// when it staged another round; false once the start or the iteration is
  /// complete. Between iterations it begins the next one (false once done).
  bool advance();
  std::span<double> reduction() { return {red_.data() + red_at_, red_width_}; }

  /// The start / one iteration end to end, each round through opts.reduce.
  void start();
  void step();

  /// Converged, or pAp == 0 stopped the recursion.
  bool done() const { return status_ != Status::Running; }
  std::size_t iteration() const { return it_; }
  double residual() const { return rnorm_; }
  SolveResult result() const;

  /// Live Krylov-state views for SDC targeting and checksum scrubbing.
  std::vector<std::pair<std::string, std::span<double>>> sdc_targets();

  /// Blob: rz, rnorm, iteration, status, x, r, z, p — then the initial
  /// residual norm when a relative tolerance reads it. Restoring into a
  /// fresh object and stepping on reproduces the iterates bitwise.
  void save_state(std::vector<double>& out) const override;
  void restore_state(const std::vector<double>& in) override;

 private:
  enum class Status { Running, BrokeDown, Converged };
  enum class Phase { Idle, StartRz, Start, Pap, Rr, TrueResidual, Rz };

  bool stage(Phase next, std::size_t at, std::size_t width);
  bool search();
  bool update();
  bool check();
  bool close();
  void direction();
  double precondition();
  double dot_rows(std::span<const double> u, std::span<const double> v);
  void touch_operands();

  core::ExecContext* ctx_;
  const Operator* a_;
  const Preconditioner* m_;
  std::span<const double> b_;
  std::span<double> x_;
  SolveOptions opts_;
  std::span<const double> md_;  ///< elementwise preconditioner, if any
  std::size_t lo_, hi_;
  /// Fused kernels reduce over every row they update: whole vectors only.
  bool fuse_kernels_;
  /// The ABFT guard rewrites z mid-iteration, which the fused round's early
  /// preconditioner apply would then clobber: it keeps separate rounds.
  bool fuse_rounds_;
  std::vector<double> r_, z_, p_, ap_;
  std::array<double, 2> red_{};
  std::size_t red_at_ = 0, red_width_ = 0;
  Phase phase_ = Phase::Idle;
  Status status_ = Status::Running;
  /// The span a phase leaves open across its reduction round.
  std::optional<prof::Scope> span_;
  double rz_ = 0.0, rz_new_ = 0.0, rnorm_ = 0.0, r0_ = 0.0;
  bool have_rz_new_ = false, restart_ = false;
  std::size_t it_ = 0, checks_ = 0, trips_ = 0, rounds_ = 0;
};

/// Preconditioned conjugate gradients. `x` holds the initial guess on entry
/// and the solution on exit.
SolveResult cg(core::ExecContext& ctx, const Operator& a,
               const Preconditioner& m, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts = {});

/// Preconditioned BiCGStab.
SolveResult bicgstab(core::ExecContext& ctx, const Operator& a,
                     const Preconditioner& m, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts = {});

/// Right-preconditioned GMRES(restart).
SolveResult gmres(core::ExecContext& ctx, const Operator& a,
                  const Preconditioner& m, std::span<const double> b,
                  std::span<double> x, std::size_t restart = 30,
                  const SolveOptions& opts = {});

/// Adapts a CsrMatrix to the Operator interface.
class CsrOperator final : public Operator {
 public:
  explicit CsrOperator(const CsrMatrix& a) : a_(&a) {}
  std::size_t rows() const override { return a_->rows(); }
  std::size_t cols() const override { return a_->cols(); }
  double footprint_bytes() const override { return a_->footprint_bytes(); }
  void apply(core::ExecContext& ctx, std::span<const double> x,
             std::span<double> y) const override {
    a_->spmv(ctx, x, y);
  }

 private:
  const CsrMatrix* a_;
};

/// Jacobi (diagonal) preconditioner.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a) : diag_(a.diagonal()) {}
  void apply(core::ExecContext& ctx, std::span<const double> r,
             std::span<double> z) const override {
    const auto& d = diag_;
    ctx.forall(r.size(), {1.0, 24.0},
               [&](std::size_t i) { z[i] = r[i] / d[i]; });
  }
  std::span<const double> diag() const override { return diag_; }

 private:
  std::vector<double> diag_;
};

}  // namespace coe::la
