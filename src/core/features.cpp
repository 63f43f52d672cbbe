#include "core/features.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace gns::core {

SceneContext SceneContext::from_trajectory(const FeatureConfig& config,
                                           const io::Trajectory& traj) {
  SceneContext ctx;
  if (config.material_feature) {
    ctx.material = ad::Tensor::scalar(traj.material_param);
  }
  if (config.static_node_attrs > 0) {
    GNS_CHECK_MSG(traj.attr_dim == config.static_node_attrs,
                  "trajectory has " << traj.attr_dim
                                    << " node attributes, feature config "
                                       "expects "
                                    << config.static_node_attrs);
    std::vector<ad::Real> data(traj.node_attrs.begin(),
                               traj.node_attrs.end());
    ctx.node_attrs = ad::Tensor::from_vector(
        traj.num_particles, traj.attr_dim, std::move(data));
  }
  return ctx;
}

ad::Tensor frame_to_tensor(const std::vector<double>& flat, int dim) {
  GNS_CHECK_MSG(dim > 0 && flat.size() % dim == 0,
                "frame size not divisible by dim");
  const int n = static_cast<int>(flat.size()) / dim;
  std::vector<ad::Real> data(flat.begin(), flat.end());
  return ad::Tensor::from_vector(n, dim, std::move(data));
}

std::vector<double> tensor_to_frame(const ad::Tensor& t) {
  return {t.vec().begin(), t.vec().end()};
}

namespace {

void check_domain(const FeatureConfig& config) {
  GNS_CHECK_MSG(static_cast<int>(config.domain_lo.size()) >= config.dim &&
                    static_cast<int>(config.domain_hi.size()) >= config.dim,
                "feature config domain bounds missing");
}

std::vector<graph::Vec2> positions_to_points(const FeatureConfig& config,
                                             const ad::Tensor& positions) {
  GNS_CHECK_MSG(positions.cols() == config.dim, "positions dim mismatch");
  const int n = positions.rows();
  std::vector<graph::Vec2> pts(n);
  const ad::Real* pv = positions.data();
  if (config.dim == 2) {
    for (int i = 0; i < n; ++i) {
      pts[i].x = pv[static_cast<std::size_t>(i) * 2];
      pts[i].y = pv[static_cast<std::size_t>(i) * 2 + 1];
    }
    return pts;
  }
  for (int i = 0; i < n; ++i) {
    pts[i].x = pv[static_cast<std::size_t>(i) * config.dim];
    pts[i].y = (config.dim > 1)
                   ? pv[static_cast<std::size_t>(i) * config.dim + 1]
                   : 0.0;
  }
  return pts;
}

}  // namespace

graph::Graph build_graph(const FeatureConfig& config,
                         const ad::Tensor& positions) {
  graph::CellList cells = make_rollout_cells(config, 0.0);
  return build_graph_cached(config, positions, cells);
}

graph::CellList make_rollout_cells(const FeatureConfig& config, double skin) {
  GNS_CHECK_MSG(skin == 0.0, "neighbor lists are rebuilt every step; skin "
                                 << skin << " must be 0");
  check_domain(config);
  const double r = config.connectivity_radius;
  graph::Vec2 lo{config.domain_lo[0] - r, 0.0};
  graph::Vec2 hi{config.domain_hi[0] + r, 0.0};
  if (config.dim > 1) {
    lo.y = config.domain_lo[1] - r;
    hi.y = config.domain_hi[1] + r;
  } else {
    // 1-D positions carry y = 0; give the grid one cell of y extent.
    lo.y = -r;
    hi.y = r;
  }
  return graph::CellList(r, lo, hi);
}

graph::Graph build_graph_cached(const FeatureConfig& config,
                                const ad::Tensor& positions,
                                graph::CellList& cells) {
  GNS_TRACE_SCOPE("graph.neighbor_search.total");
  static auto& total_ms =
      obs::MetricsRegistry::global().histogram("graph.neighbor_search_ms");
  const obs::ScopedHistogramTimer phase_timer(total_ms);
  GNS_CHECK_MSG(cells.radius() == config.connectivity_radius,
                "CellList radius does not match feature config");
  const std::vector<graph::Vec2> pts = positions_to_points(config, positions);
  cells.build(pts);
  return cells.radius_graph(pts);
}

ad::Tensor build_node_features(const FeatureConfig& config,
                               const Normalizer& norm,
                               const std::vector<ad::Tensor>& position_window,
                               const SceneContext& context) {
  return build_batched_node_features(config, norm, {position_window},
                                     {context});
}

ad::Tensor build_edge_features(const FeatureConfig& config,
                               const ad::Tensor& positions,
                               const graph::Graph& graph) {
  return build_edge_features(config, positions, graph, GraphIndex(graph));
}

ad::Tensor build_edge_features(const FeatureConfig& config,
                               const ad::Tensor& positions,
                               const graph::Graph& graph,
                               const GraphIndex& index) {
  GNS_CHECK_MSG(graph.num_nodes == positions.rows(),
                "graph/positions size mismatch");
  GNS_CHECK_MSG(graph.num_edges() > 0,
                "graph has no edges — connectivity radius too small?");
  GNS_CHECK_MSG(index.defined() &&
                    index.senders.size() == graph.num_edges() &&
                    index.senders.num_buckets() == graph.num_nodes,
                "GraphIndex does not match graph");
  const double inv_r = 1.0 / config.connectivity_radius;
  // One fused row-local op, bitwise equal to the former
  // gather/sub/mul_scalar/square/sum_cols/add_scalar/sqrt/concat chain
  // (the 1e-12 epsilon keeps the sqrt gradient finite for coincident
  // particles).
  return ad::radius_edge_features(positions, index.senders, index.receivers,
                                  inv_r, 1e-12);
}

ad::Tensor build_batched_node_features(
    const FeatureConfig& config, const Normalizer& norm,
    const std::vector<std::vector<ad::Tensor>>& windows,
    const std::vector<SceneContext>& contexts) {
  const int b = static_cast<int>(windows.size());
  GNS_CHECK_MSG(b > 0, "node features need at least one window");
  GNS_CHECK_MSG(static_cast<int>(contexts.size()) == b,
                "need one scene context per window");
  const int w = config.window_size();
  for (const auto& window : windows)
    GNS_CHECK_MSG(static_cast<int>(window.size()) == w,
                  "window needs " << w << " frames, got " << window.size());

  // Merge the windows frame-by-frame (rows in member order; one member
  // adds no op), then build the row-local motion features once over the
  // whole batch.
  std::vector<ad::Tensor> merged_window;
  merged_window.reserve(w);
  std::vector<ad::Tensor> frame_parts(b);
  for (int t = 0; t < w; ++t) {
    for (int g = 0; g < b; ++g) frame_parts[g] = windows[g][t];
    merged_window.push_back(b == 1 ? frame_parts[0]
                                   : ad::concat_rows(frame_parts));
  }

  const ad::Tensor& newest = merged_window.back();
  GNS_CHECK_MSG(newest.cols() == config.dim, "position dim mismatch");
  check_domain(config);
  std::vector<ad::Tensor> parts;
  parts.reserve(config.history + 2 * config.dim + 2);

  // C velocity frames, oldest first, each whitened by dataset stats.
  for (int c = 0; c < config.history; ++c) {
    ad::Tensor v = ad::sub(merged_window[c + 1], merged_window[c]);
    parts.push_back(norm.normalize_velocity(v));
  }

  // Boundary distances, clipped to [0, 1] at the connectivity radius:
  // (x - lo)/R and (hi - x)/R per axis.
  const double inv_r = 1.0 / config.connectivity_radius;
  for (int d = 0; d < config.dim; ++d) {
    ad::Tensor axis = (config.dim == 1)
                          ? newest
                          : ad::slice_cols(newest, d, 1);
    ad::Tensor to_lo = ad::clamp(
        ad::mul_scalar(ad::add_scalar(axis, -config.domain_lo[d]), inv_r),
        0.0, 1.0);
    ad::Tensor to_hi = ad::clamp(
        ad::mul_scalar(
            ad::add_scalar(ad::mul_scalar(axis, -1.0), config.domain_hi[d]),
            inv_r),
        0.0, 1.0);
    parts.push_back(to_lo);
    parts.push_back(to_hi);
  }

  // The segmented features: per-member scalars/attributes broadcast only
  // within their member's node range.
  if (config.material_feature) {
    std::vector<ad::Tensor> cols;
    cols.reserve(b);
    for (int g = 0; g < b; ++g) {
      const SceneContext& ctx = contexts[g];
      GNS_CHECK_MSG(ctx.material.defined() && ctx.material.size() == 1,
                    "material_feature=true needs a scalar material param "
                    "(member " << g << ")");
      // Broadcast the scalar into a column: ones[N_g,1] * φ̂.
      cols.push_back(ad::mul(ad::Tensor::ones(windows[g].back().rows(), 1),
                             ctx.material));
    }
    parts.push_back(b == 1 ? cols[0] : ad::concat_rows(cols));
  }

  if (config.static_node_attrs > 0) {
    std::vector<ad::Tensor> attrs;
    attrs.reserve(b);
    for (int g = 0; g < b; ++g) {
      const SceneContext& ctx = contexts[g];
      GNS_CHECK_MSG(ctx.node_attrs.defined() &&
                        ctx.node_attrs.rows() == windows[g].back().rows() &&
                        ctx.node_attrs.cols() == config.static_node_attrs,
                    "scene context node_attrs missing or mis-shaped "
                    "(member " << g << ")");
      attrs.push_back(ctx.node_attrs);
    }
    parts.push_back(b == 1 ? attrs[0] : ad::concat_rows(attrs));
  }

  return ad::concat_cols(parts);
}

}  // namespace gns::core
