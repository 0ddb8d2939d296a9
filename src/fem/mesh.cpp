#include "fem/mesh.hpp"

#include <cassert>
#include <stdexcept>

namespace coe::fem {

namespace {
std::vector<double> uniform_lines(std::size_t n) {
  std::vector<double> lines(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    lines[i] = static_cast<double>(i) / static_cast<double>(n);
  }
  return lines;
}
}  // namespace

TensorMesh2D::TensorMesh2D(std::size_t nx, std::size_t ny, std::size_t order)
    : xlines_(uniform_lines(nx)), ylines_(uniform_lines(ny)), order_(order) {
  build(order);
}

TensorMesh2D::TensorMesh2D(std::vector<double> xlines,
                           std::vector<double> ylines, std::size_t order)
    : xlines_(std::move(xlines)), ylines_(std::move(ylines)), order_(order) {
  assert(xlines_.size() >= 2 && ylines_.size() >= 2);
  build(order);
}

void TensorMesh2D::build(std::size_t order) {
  // Order 0 would give one dof per axis, all of it boundary.
  if (order < 1) {
    throw std::invalid_argument("TensorMesh2D: order must be at least 1");
  }
  const auto gll = gll_nodes(order);
  xcoord_.resize(ndof_x());
  ycoord_.resize(ndof_y());
  for (std::size_t ex = 0; ex < nx(); ++ex) {
    for (std::size_t l = 0; l <= order; ++l) {
      xcoord_[ex * order + l] =
          xlines_[ex] + 0.5 * (gll[l] + 1.0) * elem_hx(ex);
    }
  }
  for (std::size_t ey = 0; ey < ny(); ++ey) {
    for (std::size_t l = 0; l <= order; ++l) {
      ycoord_[ey * order + l] =
          ylines_[ey] + 0.5 * (gll[l] + 1.0) * elem_hy(ey);
    }
  }
  on_boundary_.assign(num_dofs(), false);
  for (std::size_t ix = 0; ix < ndof_x(); ++ix) {
    for (std::size_t iy = 0; iy < ndof_y(); ++iy) {
      if (ix == 0 || iy == 0 || ix + 1 == ndof_x() || iy + 1 == ndof_y()) {
        const std::size_t d = dof(ix, iy);
        on_boundary_[d] = true;
        boundary_.push_back(d);
      }
    }
  }
}

}  // namespace coe::fem
