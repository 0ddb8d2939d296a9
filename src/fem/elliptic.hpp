#pragma once
// The mini-MFEM elliptic operator  A = alpha*M + beta*K(kappa)  on a
// TensorMesh2D with homogeneous Dirichlet boundary (identity rows on
// boundary dofs). Two assembly levels, mirroring Section 4.10.3:
//
//  * Assembly::Full    -- classic global CSR assembly (the "existing
//                         algorithms ... wrong choice for GPUs").
//  * Assembly::Partial -- matrix-free sum-factorized action storing only
//                         quadrature-point data (the rewritten algorithm).
//
// assemble_lor() builds the order-1 operator on the GLL lattice -- the
// low-order-refined matrix handed to BoomerAMG as a preconditioner for the
// high-order operator (Figure 8 / Table 4 experiment).

#include <functional>
#include <vector>

#include "fem/mesh.hpp"
#include "la/csr.hpp"
#include "la/operator.hpp"

namespace coe::fem {

enum class Assembly { Full, Partial };

class EllipticOperator final : public la::Operator {
 public:
  /// Throws std::invalid_argument unless 1 <= mesh.order() <= 10 (the
  /// element kernels' stack bound).
  EllipticOperator(const TensorMesh2D& mesh, Assembly mode, double alpha,
                   double beta);

  std::size_t rows() const override { return mesh_->num_dofs(); }
  std::size_t cols() const override { return mesh_->num_dofs(); }

  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  /// Rescales the mass/stiffness blend (e.g. M + gamma*K inside Newton);
  /// invalidates any cached full assembly.
  void set_alpha_beta(double alpha, double beta);

  /// Diffusion coefficient from a function of position.
  void set_kappa(const std::function<double(double, double)>& kappa);

  /// Diffusion coefficient kappa = k(u) from a nodal state vector (the
  /// lagged linearization used in the nonlinear diffusion driver).
  void set_kappa_from_nodal(std::span<const double> u,
                            const std::function<double(double)>& k);

  /// y = A x. Partial mode contracts on the fly; Full mode does SpMV on
  /// the assembled matrix (assembling on first use).
  void apply(core::ExecContext& ctx, std::span<const double> x,
             std::span<double> y) const override;

  /// The assembled global matrix (built on demand; Dirichlet-condensed).
  const la::CsrMatrix& assembled_matrix() const;

  /// Order-1 rediscretization on the GLL lattice with the same alpha/beta
  /// and coefficient -- spectrally equivalent to the high-order operator.
  la::CsrMatrix assemble_lor() const;

  /// Diagonal of A (for Jacobi), computed matrix-free in Partial mode.
  std::vector<double> assemble_diagonal() const;

  /// Approximate flops of one partial-assembly apply (for reporting).
  double pa_flops_per_apply() const;
  /// Bytes touched by one partial-assembly apply.
  double pa_bytes_per_apply() const;
  /// Memory footprint of the operator data (PA qdata vs CSR).
  double storage_bytes() const;

  const TensorMesh2D& mesh() const { return *mesh_; }

 private:
  void apply_partial(core::ExecContext& ctx, std::span<const double> x,
                     std::span<double> y) const;
  /// The partial-assembly kernel with compile-time loop bounds: P1 = p + 1
  /// nodes and Q = p + 2 Gauss points per direction. apply_partial picks
  /// the instance for the mesh order.
  template <std::size_t P1, std::size_t Q>
  void apply_partial_p(core::ExecContext& ctx, std::span<const double> x,
                       std::span<double> y) const;
  /// Writes the (p+1)^2 x (p+1)^2 element matrix, row-major, into `m`.
  void element_matrix(std::size_t ex, std::size_t ey,
                      std::span<double> m) const;
  /// element_matrix with compile-time loop bounds, picked like
  /// apply_partial_p.
  template <std::size_t P1, std::size_t Q>
  void element_matrix_p(std::size_t ex, std::size_t ey,
                        std::span<double> m) const;
  void build_full() const;

  const TensorMesh2D* mesh_;
  Assembly mode_;
  double alpha_, beta_;
  Element1D el_;
  std::vector<double> kappa_q_;      ///< nel * q * q quadrature coefficients
  std::vector<double> kappa_nodal_;  ///< kappa at lattice dofs (for LOR)
  mutable la::CsrMatrix full_;
  mutable bool full_built_ = false;
};

}  // namespace coe::fem
