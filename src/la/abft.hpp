#pragma once
// Algorithm-based fault tolerance (Huang–Abraham, 1984) for the Krylov
// stack. The checksum identity: for w = A^T e (per-column sums of A,
// computed once at setup), every product y = A x must satisfy
//
//   e^T y  =  (e^T A) x  =  w^T x
//
// exactly in real arithmetic, and to rounding accuracy in floating point.
// AbftCsrOperator verifies it after every SpMV — two extra reductions per
// apply, the classic O(n) check on an O(nnz) kernel — and counts trips
// without changing the product, so the solver (or the guard verify hook)
// decides how to react. The tolerance is scaled by sum(|w_i x_i|), the
// natural magnitude of the checksum accumulation, so the check adapts to
// the data: exponent-bit corruption trips it, rounding noise does not, and
// low-mantissa corruption below the tolerance escapes (that residual
// escape rate is exactly what the guard benches measure).
//
// The checkpointable CG it guards is la::Pcg (la/krylov.hpp), stepped with
// zero tolerance under resil::run_resilient with SDC injection, detectors,
// and rollback-and-recompute like any other app driver.

#include <cstddef>
#include <span>
#include <vector>

#include "la/csr.hpp"
#include "la/operator.hpp"

namespace coe::la {

/// Checksum-carrying SpMV: wraps a CsrMatrix and verifies the
/// Huang–Abraham identity after every apply.
class AbftCsrOperator final : public Operator {
 public:
  /// `rel_tol` bounds |e^T y - w^T x| relative to sum(|w_i x_i|); the
  /// default leaves ~6 decimal digits of headroom over double rounding on
  /// the problem sizes used here.
  explicit AbftCsrOperator(const CsrMatrix& a, double rel_tol = 1e-9);

  std::size_t rows() const override { return a_->rows(); }
  std::size_t cols() const override { return a_->cols(); }
  void apply(core::ExecContext& ctx, std::span<const double> x,
             std::span<double> y) const override;

  std::size_t checks() const { return checks_; }
  std::size_t trips() const { return trips_; }
  /// |e^T y - w^T x| / scale from the most recent apply.
  double last_relative_error() const { return last_rel_err_; }
  void clear_trips() { trips_ = 0; }

  std::span<const double> checksum() const { return w_; }

 private:
  const CsrMatrix* a_;
  std::vector<double> w_;  ///< A^T e, the column checksum vector
  double rel_tol_;
  // apply() is const in the Operator interface; the audit counters are
  // observability, not operator state.
  mutable std::size_t checks_ = 0;
  mutable std::size_t trips_ = 0;
  mutable double last_rel_err_ = 0.0;
};

}  // namespace coe::la
