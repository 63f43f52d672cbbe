#pragma once

/// \file batched_simulator.hpp
/// BatchedSimulator: steps B independent particle systems through ONE GNS
/// forward pass per step by merging their graphs block-diagonally
/// (graph/batch.hpp). Each member keeps its own window and scene context
/// and gets its own neighbor graph (core::build_graph) every step; only
/// the model evaluation is shared, so the per-step matmuls/gathers run
/// over sum_g N_g nodes instead of B small tensors — the batching layer
/// behind the serving subsystem's coalesced dispatch.
///
/// Equivalence contract: every op in the batched forward (MLPs, layer norm,
/// gather/scatter, segment softmax, integration) is row- or segment-local,
/// and batching preserves per-member row/edge order, so a batched step is
/// bit-identical to B independent LearnedSimulator::step calls
/// (tests/test_batching.cpp asserts this elementwise).

#include <functional>
#include <memory>
#include <vector>

#include "core/simulator.hpp"
#include "graph/batch.hpp"

namespace gns::core {

class BatchedSimulator {
 public:
  /// The simulator handle is shared (serving hands out
  /// ModelRegistry::Handle); weights are never copied.
  explicit BatchedSimulator(
      std::shared_ptr<const LearnedSimulator> simulator);

  /// One integrator step for every member through a single block-diagonal
  /// forward. windows[g] holds window_size() frames (oldest first) of
  /// member g; members may differ in particle count. Returns x_{t+1} per
  /// member. `out_batch` (optional) receives the merged graph built for
  /// the step.
  [[nodiscard]] std::vector<ad::Tensor> step(
      const std::vector<Window>& windows,
      const std::vector<SceneContext>& contexts,
      graph::GraphBatch* out_batch = nullptr) const;

  /// Gate polled before every batched step for each still-active member.
  /// Return false to drop the member immediately: it keeps the frames
  /// predicted so far and is compacted out of subsequent steps (the serve
  /// layer uses this for per-member deadlines and cancellation).
  using StepGate = std::function<bool(int member)>;

  /// Inference rollout (taping disabled) of B members for steps[g] frames
  /// each. Members that reach their step count — or whose gate says stop —
  /// are compacted out while the rest keep stepping as a smaller batch.
  /// Returns the predicted frames per member, flat [N_g * dim] each.
  [[nodiscard]] std::vector<std::vector<std::vector<double>>> rollout(
      const std::vector<Window>& initial_windows,
      const std::vector<int>& steps,
      const std::vector<SceneContext>& contexts,
      const StepGate& gate = nullptr) const;

  [[nodiscard]] const LearnedSimulator& simulator() const { return *sim_; }

 private:
  std::shared_ptr<const LearnedSimulator> sim_;
};

/// Incremental form of BatchedSimulator::rollout: holds the rolling
/// windows and per-member frame buffers between steps so a
/// caller can advance the batch one step at a time — the serving layer
/// runs each step as one executor task (a continuation chain) instead of
/// blocking a thread for the whole rollout. rollout() is implemented on
/// top of this class, so the blocking and the step-at-a-time paths execute
/// the exact same op sequence and stay bitwise identical.
class BatchedRollout {
 public:
  BatchedRollout(std::shared_ptr<const LearnedSimulator> simulator,
                 const std::vector<Window>& initial_windows,
                 const std::vector<int>& steps,
                 const std::vector<SceneContext>& contexts);

  /// Gate-compacts the still-active members, then advances them by one
  /// block-diagonal step. Returns true while members remain active
  /// afterwards (i.e. another step_once call would do work). Opens no
  /// ad::ArenaScope: BatchedSimulator::rollout wraps each step in one,
  /// while serving chains step unpooled so no executor worker keeps a pool.
  bool step_once(const BatchedSimulator::StepGate& gate = nullptr);

  [[nodiscard]] bool done() const { return active_.empty(); }

  /// Predicted frames per member, flat [N_g * dim] each. Moves the
  /// buffers out; the rollout is finished once this is called.
  [[nodiscard]] std::vector<std::vector<std::vector<double>>> take_frames() {
    return std::move(frames_);
  }

 private:
  BatchedSimulator batched_;
  std::vector<Window> windows_;
  std::vector<int> steps_;
  std::vector<SceneContext> contexts_;
  std::vector<std::vector<std::vector<double>>> frames_;
  std::vector<int> active_;  ///< member indices still rolling
  // Per-step scratch, kept across steps to avoid reallocation.
  std::vector<Window> step_windows_;
  std::vector<SceneContext> step_contexts_;
};

}  // namespace gns::core
