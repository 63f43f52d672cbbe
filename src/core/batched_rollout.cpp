#include "core/batched_rollout.hpp"

#include <algorithm>

namespace gns::core {

BatchedRollout::BatchedRollout(
    std::shared_ptr<const LearnedSimulator> simulator,
    const std::vector<Window>& initial_windows, const std::vector<int>& steps,
    const std::vector<SceneContext>& contexts)
    : sim_(std::move(simulator)), steps_(steps), contexts_(contexts) {
  GNS_CHECK_MSG(sim_ != nullptr, "BatchedRollout needs a simulator");
  const int b = static_cast<int>(initial_windows.size());
  GNS_CHECK_MSG(b > 0, "batched rollout needs at least one member");
  GNS_CHECK_MSG(static_cast<int>(steps.size()) == b &&
                    static_cast<int>(contexts.size()) == b,
                "batched rollout needs one step count and context per member");
  for (int s : steps) GNS_CHECK_MSG(s > 0, "steps must be positive");

  ad::NoGradGuard no_grad;
  windows_.resize(initial_windows.size());
  for (int g = 0; g < b; ++g) {
    windows_[g].reserve(initial_windows[g].size());
    for (const auto& t : initial_windows[g])
      windows_[g].push_back(t.detach());
  }

  frames_.resize(initial_windows.size());
  for (int g = 0; g < b; ++g)
    frames_[g].reserve(static_cast<std::size_t>(steps[g]));

  active_.resize(initial_windows.size());
  for (int g = 0; g < b; ++g) active_[g] = g;
}

bool BatchedRollout::step_once(const StepGate& gate) {
  if (active_.empty()) return false;
  ad::NoGradGuard no_grad;
  if (gate) {
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [&gate](int g) { return !gate(g); }),
                  active_.end());
    if (active_.empty()) return false;
  }

  step_windows_.clear();
  step_contexts_.clear();
  for (int g : active_) {
    step_windows_.push_back(windows_[g]);
    step_contexts_.push_back(contexts_[g]);
  }
  std::vector<ad::Tensor> next =
      sim_->step_batch(step_windows_, step_contexts_);

  std::vector<int> still_active;
  still_active.reserve(active_.size());
  for (std::size_t k = 0; k < active_.size(); ++k) {
    const int g = active_[k];
    frames_[g].push_back(tensor_to_frame(next[k]));
    windows_[g].erase(windows_[g].begin());
    windows_[g].push_back(next[k]);
    if (static_cast<int>(frames_[g].size()) < steps_[g])
      still_active.push_back(g);
  }
  active_.swap(still_active);
  return !active_.empty();
}

}  // namespace gns::core
