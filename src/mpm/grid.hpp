#pragma once

/// \file grid.hpp
/// Background Eulerian grid of the MPM. Holds nodal mass/momentum/force and
/// velocity, and the box boundary rule (frictional floor, free-slip walls).

#include <cmath>
#include <vector>

#include "mpm/types.hpp"
#include "util/check.hpp"

namespace gns::mpm {

/// Uniform node-centered grid over [0, nx*h] x [0, ny*h] with (nx+1)(ny+1)
/// nodes.
class Grid {
 public:
  Grid(int cells_x, int cells_y, double spacing);

  [[nodiscard]] int cells_x() const { return nx_; }
  [[nodiscard]] int cells_y() const { return ny_; }
  [[nodiscard]] int nodes_x() const { return nx_ + 1; }
  [[nodiscard]] int nodes_y() const { return ny_ + 1; }
  [[nodiscard]] int num_nodes() const { return nodes_x() * nodes_y(); }
  [[nodiscard]] double spacing() const { return h_; }
  [[nodiscard]] double width() const { return nx_ * h_; }
  [[nodiscard]] double height() const { return ny_ * h_; }

  [[nodiscard]] int node_index(int ix, int iy) const {
    GNS_DCHECK(ix >= 0 && ix < nodes_x() && iy >= 0 && iy < nodes_y());
    return iy * nodes_x() + ix;
  }

  std::vector<double> mass;
  std::vector<Vec2d> momentum;
  std::vector<Vec2d> force;
  std::vector<Vec2d> velocity;

 private:
  int nx_;
  int ny_;
  double h_;
};

/// Box boundary rule for the velocity `v` of node (ix, iy) of a grid with
/// nodes_x × nodes_y nodes, applied in the order floor, ceiling, left
/// wall, right wall: no velocity out of the box at the four walls, and on
/// the floor Coulomb friction on the tangential component with
/// coefficient `floor_friction` (0 = free slip, large = effectively no
/// slip) against the normal push the node would otherwise have. Interior
/// nodes are left as they are.
inline void apply_boundary(Vec2d& v, int ix, int iy, int nodes_x,
                           int nodes_y, double floor_friction) {
  if (iy == 0 && v.y < 0.0) {
    const double vn = -v.y;  // inward normal magnitude
    v.y = 0.0;
    const double vt = v.x;
    const double drop = floor_friction * vn;
    v.x = (std::abs(vt) <= drop) ? 0.0 : vt - std::copysign(drop, vt);
  }
  if (iy == nodes_y - 1 && v.y > 0.0) v.y = 0.0;
  if (ix == 0 && v.x < 0.0) v.x = 0.0;
  if (ix == nodes_x - 1 && v.x > 0.0) v.x = 0.0;
}

}  // namespace gns::mpm
