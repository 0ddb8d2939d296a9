#pragma once
// Cell-list-based Verlet neighbor lists. The entire construction runs "on
// the GPU" in ddcMD (Section 4.6: "we moved the entire MD loop to the GPU,
// including ... neighbor list construction").

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/exec.hpp"
#include "md/particles.hpp"

namespace coe::md {

/// Half neighbor list (each pair stored once, i < j), built via cell
/// binning; valid until any particle moves more than skin/2.
class NeighborList {
 public:
  NeighborList(double rcut, double skin) : rcut_(rcut), skin_(skin) {}

  /// Rebuilds rows [row_lo, row_hi) from scratch (row_hi is clamped to n);
  /// O(N) with cell lists. Rows outside the range are left empty, and each
  /// built row holds exactly the neighbors a full build gives it, in the
  /// same order. The default range is the full list.
  void build(core::ExecContext& ctx, const Particles& p, const Box& box,
             std::size_t row_lo = 0, std::size_t row_hi = SIZE_MAX);

  /// Brute-force O(N^2) reference builder (tests/ablation).
  void build_n2(core::ExecContext& ctx, const Particles& p, const Box& box);

  /// True if any particle moved far enough to invalidate the list.
  bool needs_rebuild(const Particles& p, const Box& box) const;

  std::size_t num_pairs() const { return pair_j_.size(); }
  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const std::uint32_t> pair_j() const { return pair_j_; }

  double cutoff_with_skin() const { return rcut_ + skin_; }

  /// Appends the list state (pairs + build-time reference positions) for
  /// checkpointing. Restoring instead of rebuilding preserves the pair
  /// *ordering*, so replayed force sums are bitwise identical.
  void save_state(std::vector<double>& out) const;
  /// Restores state written by save_state; returns the advanced cursor.
  const double* load_state(const double* in);

 private:
  void snapshot(const Particles& p);

  double rcut_, skin_;
  std::vector<std::size_t> row_ptr_;   ///< per-particle neighbor offsets
  std::vector<std::uint32_t> pair_j_;  ///< neighbor indices (j > i)
  std::vector<double> x0_, y0_, z0_;   ///< positions at build time
};

}  // namespace coe::md
