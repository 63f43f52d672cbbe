#pragma once

/// \file neighbor_search.hpp
/// Fixed-radius neighbor search in 2-D via a uniform cell list (cell size =
/// search radius, 3x3 stencil). This is the graph-construction kernel that
/// runs every GNS rollout step, so it is allocation-light and parallel
/// over query particles (exec::parallel_for).

#include <array>
#include <vector>

#include "graph/graph.hpp"

namespace gns::graph {

/// 2-D point in the particle state layout used across the library.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

/// Reusable cell-list accelerator. `build` hashes particles into cells;
/// `radius_graph` emits the directed edge list of all ordered pairs within
/// `radius` (excluding self edges unless requested — GNS uses self edges
/// off because node features already carry self information).
///
/// With `skin > 0` the structure becomes a Verlet skin list: cells are
/// sized `radius + skin` and `maybe_rebuild` skips the rebuild while no
/// particle has moved more than `skin/2` from its position at build time.
/// Queries always filter pairs at the exact `radius` against *current*
/// positions, so the emitted edge list is identical (element for element)
/// to a freshly built list — reuse changes cost, never results. The
/// skin/2 bound is the classic Verlet argument: if both endpoints moved at
/// most skin/2, any pair now within `radius` was within `radius + skin` at
/// build time and is therefore still covered by the 3x3 cell stencil.
class CellList {
 public:
  /// \param radius     search radius (cell edge length is radius + skin)
  /// \param domain_min lower corner of the indexable domain
  /// \param domain_max upper corner; particles outside are clamped to the
  ///                   boundary cells, so the search stays correct for
  ///                   slightly escaping particles (clamping is a 1-Lipschitz
  ///                   projection, so stencil coverage is preserved).
  /// \param skin       extra shell reused across steps; 0 disables reuse.
  CellList(double radius, Vec2 domain_min, Vec2 domain_max, double skin = 0.0);

  /// Rebuilds the cell structure for the given positions.
  void build(const std::vector<Vec2>& positions);

  /// Rebuilds only when required for correctness: on first use, when the
  /// particle count changed, or when some particle drifted more than
  /// skin/2 from its build-time position. Returns true when a rebuild
  /// happened. With skin == 0 this is equivalent to build().
  bool maybe_rebuild(const std::vector<Vec2>& positions);

  /// All ordered pairs (i, j), i != j (unless include_self), with
  /// |x_i - x_j| <= radius. Edge direction is sender=j, receiver=i —
  /// every node receives from its neighbors.
  [[nodiscard]] Graph radius_graph(const std::vector<Vec2>& positions,
                                   bool include_self = false) const;

  /// Neighbor indices of one query point (includes the point itself if it
  /// is in the built set and include_self).
  [[nodiscard]] std::vector<int> neighbors(const std::vector<Vec2>& positions,
                                           int query,
                                           bool include_self = false) const;

  [[nodiscard]] double radius() const { return radius_; }
  [[nodiscard]] double skin() const { return skin_; }

  /// Caller-owned point scratch that lives as long as the CellList (i.e.
  /// across the steps of a rollout). core::build_graph_cached fills it in
  /// place each step instead of allocating a fresh vector per call.
  [[nodiscard]] std::vector<Vec2>& points_scratch() {
    return points_scratch_;
  }

 private:
  [[nodiscard]] int cell_of(Vec2 p) const;
  [[nodiscard]] std::array<int, 2> cell_coords(Vec2 p) const;

  double radius_;
  double skin_;
  double cell_size_;
  Vec2 min_;
  int nx_ = 0;
  int ny_ = 0;
  // CSR layout: particle ids sorted by cell + per-cell start offsets.
  std::vector<int> cell_start_;
  std::vector<int> sorted_ids_;
  // Positions at the last build; tracked only when skin_ > 0 so
  // maybe_rebuild can bound per-particle drift.
  std::vector<Vec2> ref_positions_;
  // Verlet candidate pairs (skin_ > 0 only): CSR of neighbors within
  // radius + skin at build time, sender-sorted per receiver. While reuse
  // holds, queries distance-filter this list instead of re-scanning the
  // cell stencil — the actual O(pairs-in-shell) Verlet saving.
  std::vector<int> cand_start_;
  std::vector<int> cand_ids_;
  std::vector<Vec2> points_scratch_;
};

/// Convenience one-shot radius graph (builds a temporary CellList sized to
/// the positions' bounding box).
[[nodiscard]] Graph build_radius_graph(const std::vector<Vec2>& positions,
                                       double radius,
                                       bool include_self = false);

/// Brute-force O(N^2) reference used by tests to validate the cell list.
[[nodiscard]] Graph brute_force_radius_graph(
    const std::vector<Vec2>& positions, double radius,
    bool include_self = false);

/// Default Verlet skin for rollout cell lists, as a fraction of the
/// connectivity radius (skin = fraction * radius). 0 disables neighbor-list
/// reuse. Initialized from the GNS_SKIN environment variable (a real
/// number, e.g. "0.25"); deliberately a process-global knob rather than a
/// FeatureConfig field so the serialized model format stays unchanged.
[[nodiscard]] double default_skin_fraction();
void set_default_skin_fraction(double fraction);

}  // namespace gns::graph
