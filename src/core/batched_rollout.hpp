#pragma once

/// \file batched_rollout.hpp
/// BatchedRollout: an inference rollout of B independent particle systems
/// advanced one step at a time, each step ONE GNS forward over all
/// still-active members (LearnedSimulator::step_batch). Each member keeps
/// its own window, scene context and step count; members that reach their
/// step count, or whose gate says stop, are compacted out while the rest
/// keep stepping as a smaller batch. The serving layer runs every dispatch
/// through it, one executor task per step (a continuation chain); a lone
/// job is a batch of one and runs exactly LearnedSimulator::rollout's op
/// chain.
///
/// Equivalence contract: a member's frames are bitwise those of its solo
/// LearnedSimulator::rollout, whatever it is batched with and whenever
/// its siblings drop out (tests/test_batching.cpp asserts this exactly).

#include <functional>
#include <memory>
#include <vector>

#include "core/simulator.hpp"

namespace gns::core {

class BatchedRollout {
 public:
  /// Gate polled before every step for each still-active member. Return
  /// false to drop the member immediately: it keeps the frames predicted
  /// so far (the serve layer uses this for per-member deadlines and
  /// cancellation).
  using StepGate = std::function<bool(int member)>;

  /// The simulator handle is shared (serving hands out
  /// ModelRegistry::Handle); weights are never copied.
  BatchedRollout(std::shared_ptr<const LearnedSimulator> simulator,
                 const std::vector<Window>& initial_windows,
                 const std::vector<int>& steps,
                 const std::vector<SceneContext>& contexts);

  /// Gate-compacts the still-active members, then advances them by one
  /// step. Returns true while members remain active afterwards (i.e.
  /// another step_once call would do work). Opens no ad::ArenaScope:
  /// serving chains step unpooled so no executor worker keeps a pool.
  bool step_once(const StepGate& gate = nullptr);

  /// Member indices still rolling (empty once the rollout is done). When
  /// step_once throws, these are the members the failed step was
  /// advancing.
  [[nodiscard]] const std::vector<int>& active() const { return active_; }

  /// Predicted frames per member, flat [N_g * dim] each. Moves the
  /// buffers out; the rollout is finished once this is called.
  [[nodiscard]] std::vector<std::vector<std::vector<double>>> take_frames() {
    return std::move(frames_);
  }

 private:
  std::shared_ptr<const LearnedSimulator> sim_;
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
