#pragma once

/// \file simulator.hpp
/// LearnedSimulator: the GNS model wrapped with feature construction,
/// normalization, and the semi-implicit Euler integrator that turns
/// predicted accelerations into rollouts (§3: "GNS uses semi-implicit Euler
/// integration to update the next state based on the predicted
/// accelerations").
///
/// Positions are in frame units: one GNS step spans `substeps` MPM steps of
/// the generating simulation, and velocity/acceleration are first/second
/// position differences per frame (the frame dt is folded into the learned
/// quantities, as in the reference GNS). Every step rebuilds its neighbor
/// graph from the newest frame (core::build_graph), so a step depends on
/// its window and scene context alone.
///
/// The GNS step exists once, over B members: forward_batch merges the
/// members' graphs block-diagonally (graph/batch.hpp) and runs one
/// encode-process-decode over the merged node and edge rows, and
/// step_batch integrates each member. Every op is row- or segment-local
/// and the merge keeps each member's row and edge order, so member g's
/// result is bitwise its one-member step; at one member no op is added
/// (no row concat or slice). forward_raw, predict_acceleration and step
/// are the one-member calls; batched serving (core::BatchedRollout) calls
/// step_batch.

#include <memory>

#include "core/features.hpp"
#include "core/gns.hpp"
#include "graph/batch.hpp"
#include "io/trajectory.hpp"

namespace gns::core {

/// A position window: the last window_size() frames, oldest first, each an
/// [N, dim] tensor.
using Window = std::vector<ad::Tensor>;

class LearnedSimulator {
 public:
  LearnedSimulator(std::shared_ptr<GnsModel> model, FeatureConfig features,
                   Normalizer normalizer);

  /// Raw model output (normalized acceleration + edge messages) for B
  /// members through one block-diagonal forward. windows[g] holds
  /// window_size() frames (oldest first) of member g and contexts[g] its
  /// scene context; members may differ in particle count. Each member gets
  /// its own neighbor graph and must have edges; `batch` receives their
  /// merge, whose node offsets locate member g's output rows.
  [[nodiscard]] GnsOutput forward_batch(
      const std::vector<Window>& windows,
      const std::vector<SceneContext>& contexts,
      graph::GraphBatch& batch) const;

  /// One integrator step per member through one forward_batch: returns
  /// x_{t+1} = x_t + (x_t − x_{t−1}) + a for every member, in order.
  [[nodiscard]] std::vector<ad::Tensor> step_batch(
      const std::vector<Window>& windows,
      const std::vector<SceneContext>& contexts) const;

  /// forward_batch of one member; exposes the graph when the caller needs
  /// edge endpoints (the §6 interpretability pipeline does).
  [[nodiscard]] GnsOutput forward_raw(
      const Window& window, const SceneContext& context,
      graph::Graph* out_graph = nullptr) const;

  /// Predicted acceleration in frame units (denormalized), differentiable
  /// through positions and the scene context.
  [[nodiscard]] ad::Tensor predict_acceleration(
      const Window& window, const SceneContext& context) const;

  /// step_batch of one member: returns x_{t+1}.
  [[nodiscard]] ad::Tensor step(const Window& window,
                                const SceneContext& context) const;

  /// Fast inference rollout: taping disabled, window slides in place.
  /// Returns all predicted frames (not including the seed window). Runs
  /// each step inside an ad::ArenaScope (the pool is freed on return);
  /// results are bitwise identical to the naive per-step path.
  [[nodiscard]] std::vector<std::vector<double>> rollout(
      const Window& initial_window, int steps,
      const SceneContext& context) const;

  /// Differentiable rollout used by the inverse solver: keeps the whole
  /// tape alive and returns every predicted position tensor. Memory grows
  /// linearly in `steps` (the paper restricts this to k = 30 for the same
  /// reason).
  [[nodiscard]] std::vector<ad::Tensor> rollout_diff(
      const Window& initial_window, int steps,
      const SceneContext& context) const;

  /// Builds a seed window from the first window_size() frames of a
  /// trajectory.
  [[nodiscard]] Window window_from_trajectory(const io::Trajectory& traj,
                                              int start_frame = 0) const;

  [[nodiscard]] const FeatureConfig& features() const { return features_; }
  [[nodiscard]] const Normalizer& normalizer() const { return normalizer_; }
  [[nodiscard]] GnsModel& model() { return *model_; }
  [[nodiscard]] const GnsModel& model() const { return *model_; }

 private:
  std::shared_ptr<GnsModel> model_;
  FeatureConfig features_;
  Normalizer normalizer_;
};

/// Mean Euclidean particle-position error between two flat frames,
/// optionally normalized by a length scale (the paper reports error as a
/// percentage of the domain size).
[[nodiscard]] double position_error(const std::vector<double>& a,
                                    const std::vector<double>& b, int dim,
                                    double length_scale = 1.0);

}  // namespace gns::core
