#include "core/simulator.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace gns::core {

LearnedSimulator::LearnedSimulator(std::shared_ptr<GnsModel> model,
                                   FeatureConfig features,
                                   Normalizer normalizer)
    : model_(std::move(model)),
      features_(std::move(features)),
      normalizer_(std::move(normalizer)) {
  GNS_CHECK_MSG(model_ != nullptr, "LearnedSimulator needs a model");
  GNS_CHECK_MSG(model_->config().node_in == features_.node_feature_count(),
                "model node_in (" << model_->config().node_in
                                  << ") does not match feature config ("
                                  << features_.node_feature_count() << ")");
  GNS_CHECK_MSG(model_->config().edge_in == features_.edge_feature_count(),
                "model edge_in does not match feature config");
  GNS_CHECK_MSG(model_->config().out_dim == features_.dim,
                "model out_dim must equal spatial dim");
  GNS_CHECK_MSG(normalizer_.dim() == features_.dim,
                "normalizer dim mismatch");
}

GnsOutput LearnedSimulator::forward_raw(const Window& window,
                                        const SceneContext& context,
                                        graph::Graph* out_graph) const {
  GNS_TRACE_SCOPE("core.simulator.forward");
  static auto& features_ms =
      obs::MetricsRegistry::global().histogram("core.simulator.features_ms");
  const ad::Tensor& newest = window.back();
  graph::Graph graph = build_graph(features_, newest);
  // One validated CSR index per step, shared by the edge-feature builder
  // and every message round of the forward.
  const GraphIndex index(graph);
  ad::Tensor node_feats, edge_feats;
  {
    GNS_TRACE_SCOPE("core.simulator.features");
    const obs::ScopedHistogramTimer phase_timer(features_ms);
    node_feats = build_node_features(features_, normalizer_, window, context);
    edge_feats = build_edge_features(features_, newest, graph, index);
  }
  GnsOutput out = model_->forward(node_feats, edge_feats, graph, index);
  if (out_graph != nullptr) *out_graph = std::move(graph);
  return out;
}

ad::Tensor LearnedSimulator::predict_acceleration(
    const Window& window, const SceneContext& context) const {
  GnsOutput out = forward_raw(window, context);
  return normalizer_.denormalize_acceleration(out.acceleration);
}

ad::Tensor LearnedSimulator::step(const Window& window,
                                  const SceneContext& context) const {
  GNS_TRACE_SCOPE("core.simulator.step");
  static auto& step_ms =
      obs::MetricsRegistry::global().histogram("core.simulator.step_ms");
  static auto& integrate_ms =
      obs::MetricsRegistry::global().histogram("core.simulator.integrate_ms");
  static auto& steps =
      obs::MetricsRegistry::global().counter("core.simulator.steps");
  const obs::ScopedHistogramTimer step_timer(step_ms);
  steps.add();
  ad::Tensor accel = predict_acceleration(window, context);
  GNS_TRACE_SCOPE("core.simulator.integrate");
  const obs::ScopedHistogramTimer phase_timer(integrate_ms);
  const ad::Tensor& xt = window.back();
  const ad::Tensor& xprev = window[window.size() - 2];
  // Semi-implicit Euler in frame units: v' = v + a; x' = x + v'.
  ad::Tensor v_next = ad::add(ad::sub(xt, xprev), accel);
  return ad::add(xt, v_next);
}

std::vector<std::vector<double>> LearnedSimulator::rollout(
    const Window& initial_window, int steps,
    const SceneContext& context) const {
  GNS_CHECK(steps > 0);
  GNS_TRACE_SCOPE("core.simulator.rollout");
  // Declared first, destroyed last: the pool this rollout fills is freed
  // after its window tensors are.
  const ad::ArenaLifetime pool_lifetime;
  ad::NoGradGuard no_grad;
  Window window;
  window.reserve(initial_window.size());
  for (const auto& t : initial_window) window.push_back(t.detach());
  std::vector<std::vector<double>> frames;
  frames.reserve(steps);
  for (int s = 0; s < steps; ++s) {
    // Per-step arena frame: every tensor this step allocates is recycled
    // for the next step once the window slides past it.
    ad::ArenaScope arena_frame;
    ad::Tensor next = step(window, context);
    frames.push_back(tensor_to_frame(next));
    window.erase(window.begin());
    window.push_back(next);
  }
  return frames;
}

std::vector<ad::Tensor> LearnedSimulator::rollout_diff(
    const Window& initial_window, int steps,
    const SceneContext& context) const {
  GNS_CHECK(steps > 0);
  Window window = initial_window;
  std::vector<ad::Tensor> frames;
  frames.reserve(steps);
  for (int s = 0; s < steps; ++s) {
    ad::Tensor next = step(window, context);
    frames.push_back(next);
    window.erase(window.begin());
    window.push_back(next);
  }
  return frames;
}

Window LearnedSimulator::window_from_trajectory(const io::Trajectory& traj,
                                                int start_frame) const {
  const int w = features_.window_size();
  GNS_CHECK_MSG(start_frame >= 0 && start_frame + w <= traj.num_frames(),
                "trajectory too short for a window at frame " << start_frame);
  Window window;
  window.reserve(w);
  for (int t = start_frame; t < start_frame + w; ++t)
    window.push_back(frame_to_tensor(traj.frames[t], features_.dim));
  return window;
}

double position_error(const std::vector<double>& a,
                      const std::vector<double>& b, int dim,
                      double length_scale) {
  GNS_CHECK_MSG(a.size() == b.size() && !a.empty(),
                "position_error frame mismatch");
  const int n = static_cast<int>(a.size()) / dim;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    double d2 = 0.0;
    for (int d = 0; d < dim; ++d) {
      const double diff = a[i * dim + d] - b[i * dim + d];
      d2 += diff * diff;
    }
    total += std::sqrt(d2);
  }
  return total / (n * length_scale);
}

}  // namespace gns::core
