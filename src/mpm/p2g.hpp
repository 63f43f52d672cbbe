#pragma once

/// \file p2g.hpp
/// The particle-to-grid scatter of the MPM step into one lane buffer.
///
/// A lane buffer holds, per grid node, the mass and a 4-double record
/// (mom_x, mom_y, force_x, force_y), so one 4-wide add moves a particle's
/// four vector-field contributions into a node. Its 64-node blocks carry
/// an epoch stamp: a block holds this step's sums only when its stamp
/// equals the step's epoch; any other block holds stale data and counts as
/// zero. A scatter zeroes a block when it first touches it in a step, so
/// no step clears a whole buffer.

#include <cstdint>
#include <vector>

#include "mpm/particles.hpp"
#include "mpm/shape.hpp"

namespace gns::mpm {

/// Nodes [blk << kP2gBlockShift, (blk + 1) << kP2gBlockShift) form one
/// stamped block.
inline constexpr int kP2gBlockShift = 6;  // 64 nodes per block

/// One P2G lane's scatter buffer over a grid of `num_nodes` nodes.
struct P2gLane {
  explicit P2gLane(int num_nodes);

  std::vector<double> mass;                ///< [node]
  std::vector<double> rec;                 ///< [node][4]
  std::vector<std::uint64_t> block_epoch;  ///< [block]
};

/// What a scatter needs of the grid and the step.
struct P2gGrid {
  int nodes_x = 0;
  int nodes_y = 0;
  double spacing = 0.0;
  ShapeKind shape = ShapeKind::QuadraticBSpline;
  Vec2d gravity;
  std::uint64_t epoch = 0;  ///< the step's stamp
};

/// Adds the contributions of particles [begin, begin + count) (count <=
/// kShapeBatch) to `lane`: per stencil node inside the grid, the mass
/// w·m, the momentum w·m·v and the force −V·σ·∇N + w·m·g, each into its
/// own running sum in particle order. Two leaves, chosen by
/// simd::active(): the scalar loop, and an AVX2 leaf that forms
/// w·m·(v.x, v.y, g.x, g.y), blends lanes 2–3 with −V·(σ·∇N) + w·m·g and
/// adds that into the node's record with one add. Each lane follows the
/// scalar expression's operations and association, so both leaves give
/// the same bits.
void p2g_scatter(const Particles& particles, int begin, int count,
                 const P2gGrid& grid, P2gLane& lane);

}  // namespace gns::mpm
