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

#include <memory>

#include "core/features.hpp"
#include "core/gns.hpp"
#include "io/trajectory.hpp"

namespace gns::core {

/// A position window: the last window_size() frames, oldest first, each an
/// [N, dim] tensor.
using Window = std::vector<ad::Tensor>;

class LearnedSimulator {
 public:
  LearnedSimulator(std::shared_ptr<GnsModel> model, FeatureConfig features,
                   Normalizer normalizer);

  /// Raw model output (normalized acceleration + edge messages) for one
  /// window; exposes the graph when the caller needs edge endpoints (the
  /// §6 interpretability pipeline does). The graph is built afresh from
  /// the newest frame (core::build_graph).
  [[nodiscard]] GnsOutput forward_raw(
      const Window& window, const SceneContext& context,
      graph::Graph* out_graph = nullptr) const;

  /// Predicted acceleration in frame units (denormalized), differentiable
  /// through positions and the scene context.
  [[nodiscard]] ad::Tensor predict_acceleration(
      const Window& window, const SceneContext& context) const;

  /// One integrator step: returns x_{t+1} = x_t + (x_t − x_{t−1}) + a.
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
