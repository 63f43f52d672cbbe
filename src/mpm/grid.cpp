#include "mpm/grid.hpp"

namespace gns::mpm {

Grid::Grid(int cells_x, int cells_y, double spacing)
    : nx_(cells_x), ny_(cells_y), h_(spacing) {
  GNS_CHECK_MSG(cells_x > 0 && cells_y > 0, "grid needs positive cell counts");
  GNS_CHECK_MSG(spacing > 0.0, "grid spacing must be positive");
  mass.assign(num_nodes(), 0.0);
  momentum.assign(num_nodes(), Vec2d{});
  force.assign(num_nodes(), Vec2d{});
  velocity.assign(num_nodes(), Vec2d{});
}

}  // namespace gns::mpm
