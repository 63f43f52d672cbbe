#pragma once

/// \file neighbor_search.hpp
/// Fixed-radius neighbor search in 2-D via a uniform cell list (cell size =
/// search radius, 3x3 stencil). This is the graph-construction kernel that
/// runs every GNS step (core::build_graph builds one over the feature
/// config's domain per call), so it is parallel over query particles
/// (exec::parallel_for).

#include <array>
#include <vector>

#include "graph/graph.hpp"

namespace gns::graph {

/// 2-D point in the particle state layout used across the library.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

/// Cell-list accelerator over a fixed domain. `build` hashes particles
/// into cells; `radius_graph` emits the directed edge list of all ordered
/// pairs within `radius` (excluding self edges unless requested — GNS uses
/// self edges off because node features already carry self information).
/// The grid is sized by the constructor's domain, never by the positions,
/// so what a build allocates is bounded by the caller's configuration.
class CellList {
 public:
  /// \param radius     search radius (also the cell edge length)
  /// \param domain_min lower corner of the indexable domain
  /// \param domain_max upper corner; particles outside are clamped to the
  ///                   boundary cells, so the search stays correct for
  ///                   escaping particles (clamping is a 1-Lipschitz
  ///                   projection, so stencil coverage is preserved).
  /// Throws CheckError for a non-positive radius, an empty domain, or a
  /// grid of more cells than an int offset array can index. Allocates
  /// nothing; build() does.
  CellList(double radius, Vec2 domain_min, Vec2 domain_max);

  /// Rebuilds the cell structure for the given positions.
  void build(const std::vector<Vec2>& positions);

  /// All ordered pairs (i, j), i != j (unless include_self), with
  /// |x_i - x_j| <= radius. Edge direction is sender=j, receiver=i —
  /// every node receives from its neighbors.
  [[nodiscard]] Graph radius_graph(const std::vector<Vec2>& positions,
                                   bool include_self = false) const;

  [[nodiscard]] double radius() const { return radius_; }

 private:
  [[nodiscard]] int cell_of(Vec2 p) const;
  [[nodiscard]] std::array<int, 2> cell_coords(Vec2 p) const;

  double radius_;
  Vec2 min_;
  int nx_ = 0;
  int ny_ = 0;
  // CSR layout: particle ids sorted by cell + per-cell start offsets.
  std::vector<int> cell_start_;
  std::vector<int> sorted_ids_;
};

/// Brute-force O(N^2) reference used by tests to validate the cell list.
[[nodiscard]] Graph brute_force_radius_graph(
    const std::vector<Vec2>& positions, double radius,
    bool include_self = false);

/// Neighbor lists are rebuilt every step, so the Verlet skin of a rollout
/// cell list is always 0. Kept for callers that still record it.
[[nodiscard]] constexpr double default_skin_fraction() { return 0.0; }

}  // namespace gns::graph
