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

GnsOutput LearnedSimulator::forward_batch(
    const std::vector<Window>& windows,
    const std::vector<SceneContext>& contexts,
    graph::GraphBatch& batch) const {
  GNS_TRACE_SCOPE("core.simulator.forward");
  static auto& features_ms =
      obs::MetricsRegistry::global().histogram("core.simulator.features_ms");
  const int b = static_cast<int>(windows.size());
  GNS_CHECK_MSG(b > 0, "a GNS step needs at least one member");
  GNS_CHECK_MSG(static_cast<int>(contexts.size()) == b,
                "need one scene context per member");
  // Per-member neighbor lists on local indices, then the block-diagonal
  // merge; every member must have edges.
  std::vector<graph::Graph> graphs;
  graphs.reserve(windows.size());
  for (int g = 0; g < b; ++g) {
    GNS_CHECK_MSG(static_cast<int>(windows[g].size()) ==
                      features_.window_size(),
                  "member " << g << " window needs "
                            << features_.window_size() << " frames");
    graphs.push_back(build_graph(features_, windows[g].back()));
    GNS_CHECK_MSG(graphs.back().num_edges() > 0,
                  "member " << g
                            << " has no edges — connectivity radius too "
                               "small?");
  }
  batch = graph::batch_graphs(graphs);
  // One validated CSR index per step, shared by the edge-feature builder
  // and every message round of the forward.
  const GraphIndex index(batch.merged);
  ad::Tensor node_feats, edge_feats;
  {
    GNS_TRACE_SCOPE("core.simulator.features");
    const obs::ScopedHistogramTimer phase_timer(features_ms);
    node_feats =
        build_batched_node_features(features_, normalizer_, windows, contexts);
    // The merged indices point into the member-ordered position rows.
    ad::Tensor newest = windows[0].back();
    if (b > 1) {
      std::vector<ad::Tensor> rows;
      rows.reserve(windows.size());
      for (const Window& w : windows) rows.push_back(w.back());
      newest = ad::concat_rows(rows);
    }
    edge_feats = build_edge_features(features_, newest, batch.merged, index);
  }
  return model_->forward(node_feats, edge_feats, batch.merged, index);
}

std::vector<ad::Tensor> LearnedSimulator::step_batch(
    const std::vector<Window>& windows,
    const std::vector<SceneContext>& contexts) const {
  GNS_TRACE_SCOPE("core.simulator.step");
  static auto& step_ms =
      obs::MetricsRegistry::global().histogram("core.simulator.step_ms");
  static auto& integrate_ms =
      obs::MetricsRegistry::global().histogram("core.simulator.integrate_ms");
  static auto& steps =
      obs::MetricsRegistry::global().counter("core.simulator.steps");
  const obs::ScopedHistogramTimer step_timer(step_ms);
  steps.add(windows.size());
  graph::GraphBatch batch;
  const ad::Tensor accel = normalizer_.denormalize_acceleration(
      forward_batch(windows, contexts, batch).acceleration);
  GNS_TRACE_SCOPE("core.simulator.integrate");
  const obs::ScopedHistogramTimer phase_timer(integrate_ms);
  const int b = batch.num_graphs();
  std::vector<ad::Tensor> next;
  next.reserve(b);
  for (int g = 0; g < b; ++g) {
    const ad::Tensor a =
        b == 1 ? accel
               : ad::slice_rows(accel, batch.node_offset[g], batch.nodes_of(g));
    const ad::Tensor& xt = windows[g].back();
    const ad::Tensor& xprev = windows[g][windows[g].size() - 2];
    // Semi-implicit Euler in frame units: v' = v + a; x' = x + v'.
    next.push_back(ad::add(xt, ad::add(ad::sub(xt, xprev), a)));
  }
  return next;
}

GnsOutput LearnedSimulator::forward_raw(const Window& window,
                                        const SceneContext& context,
                                        graph::Graph* out_graph) const {
  graph::GraphBatch batch;
  GnsOutput out = forward_batch({window}, {context}, batch);
  if (out_graph != nullptr) *out_graph = std::move(batch.merged);
  return out;
}

ad::Tensor LearnedSimulator::predict_acceleration(
    const Window& window, const SceneContext& context) const {
  return normalizer_.denormalize_acceleration(
      forward_raw(window, context).acceleration);
}

ad::Tensor LearnedSimulator::step(const Window& window,
                                  const SceneContext& context) const {
  return step_batch({window}, {context}).front();
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
