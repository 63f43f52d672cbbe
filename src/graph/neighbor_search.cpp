#include "graph/neighbor_search.hpp"

#include "exec/parallel_for.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"

namespace gns::graph {

CellList::CellList(double radius, Vec2 domain_min, Vec2 domain_max)
    : radius_(radius), min_(domain_min) {
  GNS_CHECK_MSG(radius > 0.0, "cell list radius must be positive");
  GNS_CHECK_MSG(domain_max.x > domain_min.x && domain_max.y > domain_min.y,
                "cell list domain must have positive extent");
  // Sized in double first: a radius far below the domain (a checkpoint's
  // config can ask for one) must fail here, not overflow int. build()
  // allocates cells + 1 offsets, so that count must fit too.
  const double nx = std::max(1.0, std::ceil((domain_max.x - domain_min.x) /
                                            radius_));
  const double ny = std::max(1.0, std::ceil((domain_max.y - domain_min.y) /
                                            radius_));
  constexpr double kMaxCells = std::numeric_limits<int>::max() - 1;
  GNS_CHECK_MSG(nx * ny <= kMaxCells,
                "cell list of " << nx << " x " << ny << " cells (radius "
                                << radius << ") exceeds " << kMaxCells
                                << " cells");
  nx_ = static_cast<int>(nx);
  ny_ = static_cast<int>(ny);
}

std::array<int, 2> CellList::cell_coords(Vec2 p) const {
  int cx = static_cast<int>(std::floor((p.x - min_.x) / radius_));
  int cy = static_cast<int>(std::floor((p.y - min_.y) / radius_));
  cx = std::clamp(cx, 0, nx_ - 1);
  cy = std::clamp(cy, 0, ny_ - 1);
  return {cx, cy};
}

int CellList::cell_of(Vec2 p) const {
  const auto [cx, cy] = cell_coords(p);
  return cy * nx_ + cx;
}

void CellList::build(const std::vector<Vec2>& positions) {
  GNS_TRACE_SCOPE("graph.neighbor_search.build");
  const int n = static_cast<int>(positions.size());
  const int num_cells = nx_ * ny_;
  // Counting sort of particle ids by cell.
  std::vector<int> counts(num_cells + 1, 0);
  std::vector<int> cell_id(n);
  for (int i = 0; i < n; ++i) {
    cell_id[i] = cell_of(positions[i]);
    ++counts[cell_id[i] + 1];
  }
  for (int c = 0; c < num_cells; ++c) counts[c + 1] += counts[c];
  cell_start_ = counts;
  sorted_ids_.assign(n, 0);
  std::vector<int> cursor(counts.begin(), counts.end() - 1);
  for (int i = 0; i < n; ++i) sorted_ids_[cursor[cell_id[i]]++] = i;
}

Graph CellList::radius_graph(const std::vector<Vec2>& positions,
                             bool include_self) const {
  GNS_TRACE_SCOPE("graph.neighbor_search.query");
  const int n = static_cast<int>(positions.size());
  GNS_CHECK_MSG(!cell_start_.empty(), "call build() before radius_graph()");
  Graph g;
  g.num_nodes = n;
  const double r2 = radius_ * radius_;

  // Pass 1 (parallel): per-particle neighbor lists into thread-local
  // buffers; pass 2 (serial): splice in particle order so the edge list is
  // deterministic regardless of thread count.
  std::vector<std::vector<int>> nbrs(n);
  exec::parallel_for(n, true, [&](std::int64_t i) {
    const auto [cx, cy] = cell_coords(positions[i]);
    auto& list = nbrs[i];
    for (int dy = -1; dy <= 1; ++dy) {
      const int yy = cy + dy;
      if (yy < 0 || yy >= ny_) continue;
      for (int dx = -1; dx <= 1; ++dx) {
        const int xx = cx + dx;
        if (xx < 0 || xx >= nx_) continue;
        const int cell = yy * nx_ + xx;
        for (int s = cell_start_[cell]; s < cell_start_[cell + 1]; ++s) {
          const int j = sorted_ids_[s];
          if (j == i && !include_self) continue;
          const double ddx = positions[i].x - positions[j].x;
          const double ddy = positions[i].y - positions[j].y;
          if (ddx * ddx + ddy * ddy <= r2) list.push_back(j);
        }
      }
    }
    std::sort(list.begin(), list.end());
  });
  std::size_t total = 0;
  for (const auto& list : nbrs) total += list.size();
  g.senders.reserve(total);
  g.receivers.reserve(total);
  for (int i = 0; i < n; ++i) {
    for (int j : nbrs[i]) {
      g.senders.push_back(j);
      g.receivers.push_back(i);
    }
  }
  return g;
}

Graph brute_force_radius_graph(const std::vector<Vec2>& positions,
                               double radius, bool include_self) {
  const int n = static_cast<int>(positions.size());
  Graph g;
  g.num_nodes = n;
  const double r2 = radius * radius;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j && !include_self) continue;
      const double dx = positions[i].x - positions[j].x;
      const double dy = positions[i].y - positions[j].y;
      if (dx * dx + dy * dy <= r2) {
        g.senders.push_back(j);
        g.receivers.push_back(i);
      }
    }
  }
  return g;
}

}  // namespace gns::graph
