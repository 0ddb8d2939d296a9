#pragma once
// mini-SAMRAI (Section 4.10.5): integer index boxes, patches with ghost
// cells, patch levels with ghost exchange, and a two-level refinement
// hierarchy with prolongation/restriction. Patch field storage draws from
// the Umpire-style MemoryPool so repeated regridding amortizes allocation
// cost, exactly the design the paper describes.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/exec.hpp"
#include "core/pool.hpp"

namespace coe::amr {

/// Closed integer index box [lo, hi] in 2D cell space.
struct Box {
  std::int64_t ilo = 0, jlo = 0;
  std::int64_t ihi = -1, jhi = -1;

  std::int64_t ni() const { return ihi - ilo + 1; }
  std::int64_t nj() const { return jhi - jlo + 1; }
  bool empty() const { return ni() <= 0 || nj() <= 0; }
  std::size_t size() const {
    return empty() ? 0 : static_cast<std::size_t>(ni() * nj());
  }

  bool contains(std::int64_t i, std::int64_t j) const {
    return i >= ilo && i <= ihi && j >= jlo && j <= jhi;
  }

  Box grown(std::int64_t g) const {
    return {ilo - g, jlo - g, ihi + g, jhi + g};
  }

  static Box intersect(const Box& a, const Box& b) {
    return {std::max(a.ilo, b.ilo), std::max(a.jlo, b.jlo),
            std::min(a.ihi, b.ihi), std::min(a.jhi, b.jhi)};
  }

  /// Refines cell indices by `ratio` (each cell becomes ratio x ratio).
  Box refined(std::int64_t ratio) const {
    return {ilo * ratio, jlo * ratio, (ihi + 1) * ratio - 1,
            (jhi + 1) * ratio - 1};
  }
  Box coarsened(std::int64_t ratio) const {
    auto fdiv = [](std::int64_t a, std::int64_t b) {
      return a >= 0 ? a / b : -((-a + b - 1) / b);
    };
    return {fdiv(ilo, ratio), fdiv(jlo, ratio), fdiv(ihi, ratio),
            fdiv(jhi, ratio)};
  }
};

/// Cell-centered double field on a ghosted patch box, pool-allocated.
class PatchField {
 public:
  PatchField(core::MemoryPool& pool, const Box& interior, std::int64_t ghost)
      : interior_(interior), ghost_(ghost), grown_(interior.grown(ghost)),
        data_(pool, grown_.size()) {
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] = 0.0;
  }

  const Box& interior() const { return interior_; }
  std::int64_t ghost() const { return ghost_; }

  double& at(std::int64_t i, std::int64_t j) {
    assert(grown_.contains(i, j));
    return data_[static_cast<std::size_t>((i - grown_.ilo) * grown_.nj() +
                                          (j - grown_.jlo))];
  }
  double at(std::int64_t i, std::int64_t j) const {
    return const_cast<PatchField*>(this)->at(i, j);
  }

  /// Exchanges the interior values with `other` and leaves both fields'
  /// ghost rings as they were: the storage is swapped, then the ghost
  /// cells are swapped back. Both fields must have the same interior box
  /// and ghost width (std::invalid_argument otherwise).
  void swap_interior(PatchField& other);

 private:
  Box interior_;
  std::int64_t ghost_;
  Box grown_;  // interior_ grown by ghost_: the stored index space
  core::PoolArray<double> data_;
};

/// A patch: one box plus named fields.
class Patch {
 public:
  Patch(core::MemoryPool& pool, const Box& box, std::int64_t ghost)
      : pool_(&pool), box_(box), ghost_(ghost) {}

  const Box& box() const { return box_; }
  std::int64_t ghost() const { return ghost_; }

  PatchField& add_field(const std::string& name) {
    auto [it, fresh] = fields_.try_emplace(name, nullptr);
    if (fresh) {
      it->second = std::make_unique<PatchField>(*pool_, box_, ghost_);
    }
    return *it->second;
  }
  PatchField& field(const std::string& name) { return *fields_.at(name); }
  const PatchField& field(const std::string& name) const {
    return *fields_.at(name);
  }
  std::vector<std::string> field_names() const {
    std::vector<std::string> names;
    for (const auto& [k, v] : fields_) names.push_back(k);
    return names;
  }

 private:
  core::MemoryPool* pool_;
  Box box_;
  std::int64_t ghost_;
  std::map<std::string, std::unique_ptr<PatchField>> fields_;
};

enum class BoundaryKind { Periodic, Outflow };

/// One refinement level: patches tiling (part of) the domain. Every lookup
/// of a cell takes the first patch (in insertion order) that contains it.
class PatchLevel {
 public:
  PatchLevel(core::MemoryPool& pool, Box domain, std::int64_t ghost,
             BoundaryKind bc)
      : pool_(&pool), domain_(domain), ghost_(ghost), bc_(bc) {}

  const Box& domain() const { return domain_; }
  std::int64_t ghost() const { return ghost_; }
  BoundaryKind boundary() const { return bc_; }

  Patch& add_patch(const Box& box) {
    patches_.push_back(std::make_unique<Patch>(*pool_, box, ghost_));
    return *patches_.back();
  }
  std::size_t num_patches() const { return patches_.size(); }
  Patch& patch(std::size_t p) { return *patches_[p]; }
  const Patch& patch(std::size_t p) const { return *patches_[p]; }

  /// Fills every patch's ghost cells for `field` from sibling patches and
  /// the physical boundary condition.
  void fill_ghosts(const std::string& field);

  /// Reads the level's value at a cell (must be interior to some patch).
  double value_at(const std::string& field, std::int64_t i,
                  std::int64_t j) const;
  bool covers(std::int64_t i, std::int64_t j) const;
  /// Index of the first patch whose box contains (i, j), or num_patches()
  /// if none does.
  std::size_t find_patch(std::int64_t i, std::int64_t j) const;

 private:
  core::MemoryPool* pool_;
  Box domain_;
  std::int64_t ghost_;
  BoundaryKind bc_;
  std::vector<std::unique_ptr<Patch>> patches_;
};

/// Piecewise-constant prolongation of `field` from the coarse level into
/// a fine patch's ghost+interior region not covered by fine siblings.
void prolong_into(const PatchLevel& coarse, Patch& fine_patch,
                  const std::string& field, std::int64_t ratio);

/// Conservative (averaging) restriction of fine data onto coarse patches.
void restrict_onto(const PatchLevel& fine, PatchLevel& coarse,
                   const std::string& field, std::int64_t ratio);

}  // namespace coe::amr
