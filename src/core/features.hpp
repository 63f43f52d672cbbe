#pragma once

/// \file features.hpp
/// Feature construction for the particle GNS (§3): the physics-inspired
/// inductive biases live here.
///
/// Node features per particle: the last C finite-difference velocities
/// (normalized — an inertial-frame bias: the network sees motion, not
/// absolute position), clipped distances to the domain boundaries (local
/// wall awareness within the connectivity radius), and optionally the
/// normalized material parameter (tan φ) that conditions the model and is
/// the handle the §5 inverse problem differentiates with respect to.
///
/// Edge features per directed edge: relative displacement scaled by the
/// connectivity radius and its norm (translation invariance — interactions
/// depend on relative geometry only).
///
/// Graph topology comes from one exact radius search per step over the
/// config domain (build_graph): a pure function of (config, positions),
/// with no neighbor state kept between steps. Everything else is built
/// from ad::Tensors, so gradients flow from a rollout loss back to
/// positions and the material parameter.

#include <vector>

#include "ad/ops.hpp"
#include "core/graph_index.hpp"
#include "core/normalization.hpp"
#include "graph/neighbor_search.hpp"

namespace gns::core {

struct FeatureConfig {
  int dim = 2;                    ///< spatial dimension (2 granular, 1 n-body)
  int history = 5;                ///< velocity history length C
  double connectivity_radius = 0.045;
  std::vector<double> domain_lo{0.0, 0.0};
  std::vector<double> domain_hi{1.0, 0.5};
  bool material_feature = false;  ///< append material param column
  int static_node_attrs = 0;      ///< per-particle static columns (r, m, ...)

  [[nodiscard]] int node_feature_count() const {
    return dim * history + 2 * dim + (material_feature ? 1 : 0) +
           static_node_attrs;
  }
  [[nodiscard]] int edge_feature_count() const { return dim + 1; }
  /// Number of position frames a prediction window needs (C velocities
  /// require C+1 positions).
  [[nodiscard]] int window_size() const { return history + 1; }
};

/// Per-scene conditioning that is constant over a rollout: the material
/// parameter (the differentiable handle of the inverse problem) and static
/// per-particle attributes.
struct SceneContext {
  ad::Tensor material;    ///< [1,1]; required iff material_feature
  ad::Tensor node_attrs;  ///< [N, static_node_attrs]; required iff > 0

  /// Builds the context from a trajectory's metadata.
  [[nodiscard]] static SceneContext from_trajectory(
      const FeatureConfig& config, const io::Trajectory& traj);
};

/// Converts a flat frame (io::Trajectory layout) into an [N, dim] tensor.
[[nodiscard]] ad::Tensor frame_to_tensor(const std::vector<double>& flat,
                                         int dim);
/// Inverse of frame_to_tensor.
[[nodiscard]] std::vector<double> tensor_to_frame(const ad::Tensor& t);

/// Builds the connectivity-radius graph from a (detached) position tensor:
/// the one neighbor search every GNS step runs. A fresh CellList over the
/// config domain (make_rollout_cells) indexes the positions, so the grid
/// is bounded by the config, never by the coordinates. Works for dim 1 and
/// 2 (1-D positions get a zero y coordinate).
[[nodiscard]] graph::Graph build_graph(const FeatureConfig& config,
                                       const ad::Tensor& positions);

/// First half of build_graph: a CellList over the config domain padded by
/// one cell, so slightly escaping particles keep indexing cheaply (farther
/// ones clamp into the boundary cells). Neighbor lists are rebuilt every
/// step, so `skin` must be 0.
[[nodiscard]] graph::CellList make_rollout_cells(const FeatureConfig& config,
                                                 double skin);

/// Second half of build_graph: rebuilds `cells` (from make_rollout_cells)
/// over `positions` and returns their radius graph. Nothing carries over
/// between calls; the edges equal build_graph's element for element.
[[nodiscard]] graph::Graph build_graph_cached(const FeatureConfig& config,
                                              const ad::Tensor& positions,
                                              graph::CellList& cells);

/// Node feature matrix [N, node_feature_count()] from a window of
/// `window_size()` position tensors (oldest first) plus the scene context:
/// build_batched_node_features of one window.
[[nodiscard]] ad::Tensor build_node_features(
    const FeatureConfig& config, const Normalizer& norm,
    const std::vector<ad::Tensor>& position_window,
    const SceneContext& context);

/// Node features [sum_g N_g, node_feature_count()] for B windows (each a
/// window_size()-frame vector, oldest first) and their scene contexts, in
/// the row layout of a graph::GraphBatch merge: member g's rows occupy
/// [node_offset[g], node_offset[g+1]). The motion and boundary features
/// are row-local, so member g's rows are bitwise those of its window
/// alone; the material column and static attributes broadcast within
/// their member's node range.
[[nodiscard]] ad::Tensor build_batched_node_features(
    const FeatureConfig& config, const Normalizer& norm,
    const std::vector<std::vector<ad::Tensor>>& windows,
    const std::vector<SceneContext>& contexts);

/// Edge feature matrix [E, dim+1] from the newest positions and the graph.
[[nodiscard]] ad::Tensor build_edge_features(const FeatureConfig& config,
                                             const ad::Tensor& positions,
                                             const graph::Graph& graph);

/// Same, with a prebuilt GraphIndex for `graph` (rollout/training paths
/// build one per step and share it with GnsModel::forward).
[[nodiscard]] ad::Tensor build_edge_features(const FeatureConfig& config,
                                             const ad::Tensor& positions,
                                             const graph::Graph& graph,
                                             const GraphIndex& index);

}  // namespace gns::core
