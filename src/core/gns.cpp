#include "core/gns.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/parallel_for.hpp"
#include "obs/obs.hpp"
#include "util/simd.hpp"

namespace gns::core {

namespace {
ad::Mlp make_mlp(int in, int out, const GnsConfig& cfg, Rng& rng,
                 bool layer_norm) {
  return ad::Mlp(in, cfg.mlp_hidden, cfg.mlp_layers, out, rng, layer_norm);
}
}  // namespace

GnsModel::GnsModel(GnsConfig config, Rng& rng)
    : config_(config),
      node_encoder_(make_mlp(config.node_in, config.latent, config, rng,
                             /*layer_norm=*/true)),
      edge_encoder_(make_mlp(config.edge_in, config.latent, config, rng,
                             /*layer_norm=*/true)),
      decoder_(make_mlp(config.latent, config.out_dim, config, rng,
                        /*layer_norm=*/false)) {
  GNS_CHECK_MSG(config.node_in > 0 && config.edge_in > 0,
                "GnsConfig feature widths must be set");
  GNS_CHECK(config.message_passing_steps > 0);
  layers_.reserve(config.message_passing_steps);
  for (int m = 0; m < config.message_passing_steps; ++m) {
    ProcessorLayer layer{
        make_mlp(3 * config.latent, config.latent, config, rng,
                 /*layer_norm=*/true),
        make_mlp(2 * config.latent, config.latent, config, rng,
                 /*layer_norm=*/true),
        nullptr};
    if (config.attention) {
      layer.attention_mlp = std::make_unique<ad::Mlp>(
          3 * config.latent, config.mlp_hidden, 1, 1, rng,
          /*output_layer_norm=*/false);
    }
    layers_.push_back(std::move(layer));
  }
  // Every round has the first one's shapes.
  const ProcessorLayer& first = layers_.front();
  row_rounds_ = 3 * config.latent <= ad::kMaxRowWidth &&
                first.edge_mlp.fits_row_path() &&
                first.node_mlp.fits_row_path() &&
                (!first.attention_mlp || first.attention_mlp->fits_row_path());
}

GnsOutput GnsModel::forward(const ad::Tensor& node_features,
                            const ad::Tensor& edge_features,
                            const graph::Graph& graph) const {
  return forward(node_features, edge_features, graph, GraphIndex(graph));
}

GnsOutput GnsModel::forward(const ad::Tensor& node_features,
                            const ad::Tensor& edge_features,
                            const graph::Graph& graph,
                            const GraphIndex& index) const {
  GNS_CHECK_MSG(node_features.cols() == config_.node_in,
                "node feature width mismatch: " << node_features.cols()
                                                << " vs " << config_.node_in);
  GNS_CHECK_MSG(edge_features.cols() == config_.edge_in,
                "edge feature width mismatch");
  GNS_CHECK_MSG(node_features.rows() == graph.num_nodes,
                "graph/node count mismatch");
  GNS_CHECK_MSG(edge_features.rows() == graph.num_edges(),
                "graph/edge count mismatch");
  GNS_CHECK_MSG(index.defined(), "GnsModel::forward with undefined index");
  GNS_CHECK_MSG(index.senders.size() == graph.num_edges() &&
                    index.senders.num_buckets() == graph.num_nodes &&
                    index.receivers.size() == graph.num_edges() &&
                    index.receivers.num_buckets() == graph.num_nodes,
                "GraphIndex does not match graph");

  GNS_TRACE_SCOPE("core.gns.forward");
  static auto& encode_ms =
      obs::MetricsRegistry::global().histogram("core.gns.encode_ms");
  static auto& process_ms =
      obs::MetricsRegistry::global().histogram("core.gns.process_ms");
  static auto& decode_ms =
      obs::MetricsRegistry::global().histogram("core.gns.decode_ms");

  ad::Tensor v, e;
  {
    GNS_TRACE_SCOPE("core.gns.encode");
    const obs::ScopedHistogramTimer phase_timer(encode_ms);
    v = node_encoder_.forward(node_features);
    e = edge_encoder_.forward(edge_features);
  }

  {
    const obs::ScopedHistogramTimer phase_timer(process_ms);
    const bool untaped = !ad::grad_enabled() && row_rounds_;
    int round = 0;
    for (const auto& layer : layers_) {
      GNS_TRACE_SCOPE_I("core.gns.round", round++);
      if (untaped)
        layer.forward_rows(index, v, e);
      else
        layer.forward_ops(index, v, e);
    }
  }

  GnsOutput out;
  {
    GNS_TRACE_SCOPE("core.gns.decode");
    const obs::ScopedHistogramTimer phase_timer(decode_ms);
    out.acceleration = decoder_.forward(v);
  }
  out.messages = e;
  return out;
}

void GnsModel::ProcessorLayer::forward_ops(const GraphIndex& index,
                                           ad::Tensor& v,
                                           ad::Tensor& e) const {
  ad::Tensor e_new, score;
  {
    GNS_TRACE_SCOPE("core.gns.round.edge");
    // Edge update: φ^e(e_k, v_sender, v_receiver) + residual.
    ad::Tensor vs = ad::gather_rows(v, index.senders);
    ad::Tensor vr = ad::gather_rows(v, index.receivers);
    ad::Tensor e_in = ad::concat_cols({e, vs, vr});
    e_new = ad::add(edge_mlp.forward(e_in), e);
    if (attention_mlp) score = attention_mlp->forward(e_in);
  }
  GNS_TRACE_SCOPE("core.gns.round.node");
  // Optional attention: per-receiver softmax over incoming messages.
  ad::Tensor weighted = e_new;
  if (attention_mlp) {
    ad::Tensor alpha = ad::segment_softmax(score, index.receivers);
    weighted = ad::mul(e_new, alpha);  // [E,L] * [E,1] broadcast
  }
  // Node update: φ^v(v_i, Σ incoming messages) + residual.
  ad::Tensor agg = ad::scatter_add_rows(weighted, index.receivers);
  ad::Tensor v_in = ad::concat_cols({v, agg});
  v = ad::add(node_mlp.forward(v_in), v);
  e = e_new;
}

// Per element, forward_rows performs the float operations of forward_ops
// in the same order: the MLP rows run the kernels linear_act and
// layer_norm run per row; the residual is one add; the aggregate starts
// at +0.0 and adds each incoming edge row in ascending edge index, as
// scatter_add_rows does; the attention softmax takes the max, the exp-sum
// and the divide over the same CSR order as segment_softmax, and each
// weighted row is one rounded multiply before its add, as mul then
// scatter_add_rows. Every output row has exactly one writer, so the
// result does not depend on the worker count, nor on how rows are tiled.
void GnsModel::ProcessorLayer::forward_rows(const GraphIndex& index,
                                            ad::Tensor& v,
                                            ad::Tensor& e) const {
  GNS_CHECK_MSG(index.senders.size() > 0, "gather_rows with empty index");
  index.senders.dcheck_valid();
  index.receivers.dcheck_valid();
  const int num_nodes = v.rows();
  const int num_edges = e.rows();
  const int latent = e.cols();
  const auto l = static_cast<std::size_t>(latent);
  const ad::Real* vv = v.data();
  const ad::Real* ev = e.data();
  const int* senders = index.senders.index().data();
  const int* receivers = index.receivers.index().data();

  // Attention scores from the edge kernel, turned in place into softmax
  // weights by the node kernel; each edge has one receiver, so each entry
  // has one writer.
  std::vector<ad::Real> alpha;
  if (attention_mlp) ad::arena::acquire(alpha, num_edges);

  // Both kernels run over tiles of kRowTile rows: gather the tile's MLP
  // input rows into stack scratch, then one forward_rows call.
  constexpr int kTile = ad::kRowTile;
  const auto tile_rows = [](std::int64_t tile, int n) {
    return static_cast<int>(std::min<std::int64_t>(kTile, n - tile * kTile));
  };

  ad::Tensor e_new = ad::make_op_result(num_edges, latent, {}, {});
  ad::Real* env = e_new.data();
  {
    GNS_TRACE_SCOPE("core.gns.round.edge");
    const std::int64_t macs =
        edge_mlp.row_macs() + (attention_mlp ? attention_mlp->row_macs() : 0);
    const int width = 3 * latent;
    exec::parallel_for((num_edges + kTile - 1) / kTile,
                       num_edges * macs > 1 << 16, [&](std::int64_t tile) {
      // φᵉ's input rows [e_i, v_s, v_r], in concat_cols' column order.
      alignas(64) ad::Real in[kTile * ad::kMaxRowWidth];
      const std::int64_t i0 = tile * kTile;
      const int rows = tile_rows(tile, num_edges);
      for (int r = 0; r < rows; ++r) {
        const std::int64_t i = i0 + r;
        ad::Real* row = in + r * width;
        std::copy_n(ev + i * l, l, row);
        std::copy_n(vv + senders[i] * l, l, row + l);
        std::copy_n(vv + receivers[i] * l, l, row + 2 * l);
      }
      ad::Real* out = env + i0 * l;
      edge_mlp.forward_rows(in, width, out, latent, rows);
      simd::accumulate(out, ev + i0 * l, rows * l);  // residual
      if (attention_mlp)
        attention_mlp->forward_rows(in, width, &alpha[i0], 1, rows);
    });
  }

  ad::Tensor v_new = ad::make_op_result(num_nodes, latent, {}, {});
  ad::Real* vnv = v_new.data();
  {
    GNS_TRACE_SCOPE("core.gns.round.node");
    const int* off = index.receivers.offsets();
    const int* pos = index.receivers.positions();
    const int width = 2 * latent;
    exec::parallel_for((num_nodes + kTile - 1) / kTile,
                       num_nodes * node_mlp.row_macs() > 1 << 16,
                       [&](std::int64_t tile) {
      // φᵛ's input rows [v_b, Σ incoming e_new].
      alignas(64) ad::Real in[kTile * ad::kMaxRowWidth];
      const std::int64_t b0 = tile * kTile;
      const int rows = tile_rows(tile, num_nodes);
      for (int r = 0; r < rows; ++r) {
        const std::int64_t b = b0 + r;
        ad::Real* row = in + r * width;
        std::copy_n(vv + b * l, l, row);
        ad::Real* agg = row + l;
        std::fill_n(agg, l, ad::Real(0));
        if (attention_mlp) {
          ad::Real seg_max = -std::numeric_limits<ad::Real>::infinity();
          for (int p = off[b]; p < off[b + 1]; ++p)
            seg_max = std::max(seg_max, alpha[pos[p]]);
          ad::Real seg_sum = ad::Real(0);
          for (int p = off[b]; p < off[b + 1]; ++p) {
            const int i = pos[p];
            alpha[i] = std::exp(alpha[i] - seg_max);
            seg_sum += alpha[i];
          }
          for (int p = off[b]; p < off[b + 1]; ++p) {
            const int i = pos[p];
            alpha[i] /= seg_sum;
            simd::accumulate_scaled(agg, env + i * l, alpha[i], l);
          }
        } else {
          for (int p = off[b]; p < off[b + 1]; ++p)
            simd::accumulate(agg, env + pos[p] * l, l);
        }
      }
      ad::Real* out = vnv + b0 * l;
      node_mlp.forward_rows(in, width, out, latent, rows);
      simd::accumulate(out, vv + b0 * l, rows * l);  // residual
    });
  }
  ad::arena::recycle(alpha);
  v = v_new;
  e = e_new;
}

std::vector<ad::Tensor> GnsModel::parameters() const {
  std::vector<ad::Tensor> params;
  auto append = [&params](const ad::Module& module) {
    auto p = module.parameters();
    params.insert(params.end(), p.begin(), p.end());
  };
  append(node_encoder_);
  append(edge_encoder_);
  for (const auto& layer : layers_) {
    append(layer.edge_mlp);
    append(layer.node_mlp);
    if (layer.attention_mlp) append(*layer.attention_mlp);
  }
  append(decoder_);
  return params;
}

}  // namespace gns::core
