#include "la/abft.hpp"

#include <cmath>

#include "la/vector_ops.hpp"

namespace coe::la {

AbftCsrOperator::AbftCsrOperator(const CsrMatrix& a, double rel_tol)
    : a_(&a), w_(a.column_sums()), rel_tol_(rel_tol) {}

void AbftCsrOperator::apply(core::ExecContext& ctx, std::span<const double> x,
                            std::span<double> y) const {
  a_->spmv(ctx, x, y);
  // e^T y, w^T x, and the magnitude scale sum(|w_i x_i|): three O(n)
  // reductions against the O(nnz) product — the ABFT tax.
  const double sy = ctx.reduce_sum(y.size(), {1.0, 8.0},
                                   [&](std::size_t i) { return y[i]; });
  const double wx = dot(ctx, w_, x);
  const double scale =
      ctx.reduce_sum(x.size(), {3.0, 16.0}, [&](std::size_t i) {
        return std::abs(w_[i] * x[i]);
      });
  ++checks_;
  const double err = std::abs(sy - wx);
  const double floor = 1e-300;
  last_rel_err_ = err / (scale + std::abs(sy) + floor);
  if (!(last_rel_err_ <= rel_tol_)) ++trips_;  // NaN/Inf trips too
}

}  // namespace coe::la
