#include "amr/patch.hpp"

#include <stdexcept>
#include <utility>

namespace coe::amr {

namespace {

/// Maps an index to its periodic image inside [lo, hi].
std::int64_t wrap(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  const std::int64_t n = hi - lo + 1;
  std::int64_t r = (v - lo) % n;
  if (r < 0) r += n;
  return lo + r;
}

std::int64_t clampi(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Calls f(i, j) for every cell of `box` grown by `g` that is not in `box`,
/// in row-major (i outer, j inner) order.
template <class F>
void for_each_ghost(const Box& box, std::int64_t g, F&& f) {
  const Box gb = box.grown(g);
  for (std::int64_t i = gb.ilo; i <= gb.ihi; ++i) {
    if (i < box.ilo || i > box.ihi) {
      for (std::int64_t j = gb.jlo; j <= gb.jhi; ++j) f(i, j);
    } else {
      for (std::int64_t j = gb.jlo; j < box.jlo; ++j) f(i, j);
      for (std::int64_t j = box.jhi + 1; j <= gb.jhi; ++j) f(i, j);
    }
  }
}

/// `field` on every patch of `level`, in patch order: one name lookup per
/// patch instead of one per cell.
template <class Level>
auto fields_of(Level& level, const std::string& field) {
  std::vector<decltype(&level.patch(0).field(field))> out;
  out.reserve(level.num_patches());
  for (std::size_t p = 0; p < level.num_patches(); ++p) {
    out.push_back(&level.patch(p).field(field));
  }
  return out;
}

}  // namespace

void PatchField::swap_interior(PatchField& other) {
  const Box& a = grown_;
  const Box& b = other.grown_;
  if (ghost_ != other.ghost_ || a.ilo != b.ilo || a.jlo != b.jlo ||
      a.ihi != b.ihi || a.jhi != b.jhi) {
    throw std::invalid_argument(
        "PatchField::swap_interior: fields have different boxes");
  }
  data_.swap(other.data_);
  for_each_ghost(interior_, ghost_, [&](std::int64_t i, std::int64_t j) {
    std::swap(at(i, j), other.at(i, j));
  });
}

void PatchLevel::fill_ghosts(const std::string& field) {
  const auto src = fields_of(*this, field);
  for (std::size_t d = 0; d < patches_.size(); ++d) {
    const Box& box = patches_[d]->box();
    PatchField& dst = *src[d];
    for_each_ghost(box, ghost_, [&](std::int64_t i, std::int64_t j) {
      // Source index after applying the physical boundary rule.
      std::int64_t si = i, sj = j;
      if (!domain_.contains(i, j)) {
        if (bc_ == BoundaryKind::Periodic) {
          si = wrap(i, domain_.ilo, domain_.ihi);
          sj = wrap(j, domain_.jlo, domain_.jhi);
        } else {
          si = clampi(i, domain_.ilo, domain_.ihi);
          sj = clampi(j, domain_.jlo, domain_.jhi);
        }
      }
      // Own interior after wrapping/clamping, else the first sibling.
      const std::size_t q = box.contains(si, sj) ? d : find_patch(si, sj);
      if (q < src.size()) dst.at(i, j) = src[q]->at(si, sj);
    });
  }
}

std::size_t PatchLevel::find_patch(std::int64_t i, std::int64_t j) const {
  std::size_t p = 0;
  while (p < patches_.size() && !patches_[p]->box().contains(i, j)) ++p;
  return p;
}

bool PatchLevel::covers(std::int64_t i, std::int64_t j) const {
  return find_patch(i, j) < patches_.size();
}

double PatchLevel::value_at(const std::string& field, std::int64_t i,
                            std::int64_t j) const {
  const std::size_t p = find_patch(i, j);
  return p < patches_.size() ? patches_[p]->field(field).at(i, j) : 0.0;
}

void prolong_into(const PatchLevel& coarse, Patch& fine_patch,
                  const std::string& field, std::int64_t ratio) {
  PatchField& dst = fine_patch.field(field);
  const auto src = fields_of(coarse, field);
  const Box& cd = coarse.domain();
  auto fdiv = [ratio](std::int64_t a) {
    return a >= 0 ? a / ratio : -((-a + ratio - 1) / ratio);
  };
  for_each_ghost(fine_patch.box(), fine_patch.ghost(),
                 [&](std::int64_t i, std::int64_t j) {
                   // Clamp into the coarse domain (outflow-style at
                   // physical walls).
                   const std::int64_t ci = clampi(fdiv(i), cd.ilo, cd.ihi);
                   const std::int64_t cj = clampi(fdiv(j), cd.jlo, cd.jhi);
                   const std::size_t q = coarse.find_patch(ci, cj);
                   if (q < src.size()) dst.at(i, j) = src[q]->at(ci, cj);
                 });
}

void restrict_onto(const PatchLevel& fine, PatchLevel& coarse,
                   const std::string& field, std::int64_t ratio) {
  const double inv = 1.0 / static_cast<double>(ratio * ratio);
  const auto src = fields_of(fine, field);
  for (std::size_t cp = 0; cp < coarse.num_patches(); ++cp) {
    Patch& patch = coarse.patch(cp);
    PatchField& dst = patch.field(field);
    for (std::int64_t i = patch.box().ilo; i <= patch.box().ihi; ++i) {
      for (std::int64_t j = patch.box().jlo; j <= patch.box().jhi; ++j) {
        const std::int64_t fi = i * ratio, fj = j * ratio;
        // Average only coarse cells whose ratio x ratio children are all
        // on the fine level.
        double sum = 0.0;
        bool all = true;
        for (std::int64_t di = 0; di < ratio && all; ++di) {
          for (std::int64_t dj = 0; dj < ratio; ++dj) {
            const std::size_t q = fine.find_patch(fi + di, fj + dj);
            if (q == src.size()) {
              all = false;
              break;
            }
            sum += src[q]->at(fi + di, fj + dj);
          }
        }
        if (all) dst.at(i, j) = sum * inv;
      }
    }
  }
}

}  // namespace coe::amr
