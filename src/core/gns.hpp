#pragma once

/// \file gns.hpp
/// The paper's primary contribution: the Encode–Process–Decode graph
/// network simulator (Fig 1a), with the attention extension of §3.
///
///  * Encoder: node and edge MLPs embed physical features into a latent
///    graph (edges are learned functions of relative geometry).
///  * Processor: M interaction-network message-passing layers with residual
///    connections. Each layer updates edge latents from (edge, sender,
///    receiver) and node latents from aggregated incoming messages. The
///    attention variant weights incoming messages with a per-receiver
///    softmax (graph attention), which the paper reports stabilizes long
///    rollouts with dynamically changing neighborhoods.
///  * Decoder: node MLP reads out the (normalized) per-particle
///    acceleration.
///
/// The final processor layer's edge latents are exposed as "messages" for
/// the §6 interpretability study: with L1 sparsity during training they
/// become a learned linear combination of the true pairwise forces, which
/// symbolic regression then converts back to a closed-form law.
///
/// A processor round runs one of two ways, bitwise equal:
///  * grad mode on (training, rollout_diff, the inverse): the op chain
///    gather_rows → concat_cols → edge MLP → add, then segment_softmax →
///    mul (attention only) → scatter_add_rows → concat_cols → node MLP →
///    add. The backward needs its intermediate tensors;
///  * grad mode off (every rollout, serving, hybrid GNS legs, §6
///    collect_messages, MeshNet): two row kernels. The edge kernel reads
///    e, v[s] and v[r] in place and writes e + φᵉ(e, v_s, v_r) per edge;
///    the node kernel sums each receiver's new edges in IndexMap CSR order
///    and writes v + φᵛ(v, Σe) per node. No intermediate tensor exists.
/// Each output element goes through the same float operations in the same
/// order on both paths (DESIGN.md "Untaped forward").

#include <memory>
#include <vector>

#include "ad/nn.hpp"
#include "core/graph_index.hpp"
#include "graph/graph.hpp"

namespace gns::core {

struct GnsConfig {
  int node_in = 0;                ///< node feature width (from FeatureConfig)
  int edge_in = 0;                ///< edge feature width
  int latent = 64;                ///< latent width of nodes/edges/messages
  int mlp_hidden = 64;
  int mlp_layers = 2;             ///< hidden layers per MLP
  int message_passing_steps = 5;  ///< processor depth M
  int out_dim = 2;                ///< decoder output (acceleration dim)
  bool attention = false;         ///< graph-attention message weighting
};

/// Output of one forward pass.
struct GnsOutput {
  ad::Tensor acceleration;  ///< [N, out_dim], in normalized units
  ad::Tensor messages;      ///< [E, latent]: final processor edge latents
};

/// Encode–Process–Decode GNN. All state is tensors with requires_grad, so
/// the model is trainable with any ad::Optimizer and differentiable
/// end-to-end through rollouts.
class GnsModel : public ad::Module {
 public:
  GnsModel(GnsConfig config, Rng& rng);

  /// Full forward pass. Builds the gather/scatter index maps internally;
  /// callers that already hold a GraphIndex for `graph` should use the
  /// overload below so the maps are shared across all message rounds.
  [[nodiscard]] GnsOutput forward(const ad::Tensor& node_features,
                                  const ad::Tensor& edge_features,
                                  const graph::Graph& graph) const;

  /// Forward with a prebuilt (validated, CSR-transposed) GraphIndex for
  /// `graph`. Bitwise identical to the overload above.
  [[nodiscard]] GnsOutput forward(const ad::Tensor& node_features,
                                  const ad::Tensor& edge_features,
                                  const graph::Graph& graph,
                                  const GraphIndex& index) const;

  [[nodiscard]] std::vector<ad::Tensor> parameters() const override;
  [[nodiscard]] const GnsConfig& config() const { return config_; }

 private:
  struct ProcessorLayer {
    ad::Mlp edge_mlp;
    ad::Mlp node_mlp;
    std::unique_ptr<ad::Mlp> attention_mlp;  // scores, only if attention

    /// One round as the op chain: the taped path and the test oracle.
    void forward_ops(const GraphIndex& index, ad::Tensor& v,
                     ad::Tensor& e) const;
    /// The same round untaped, as an edge kernel and a node kernel.
    void forward_rows(const GraphIndex& index, ad::Tensor& v,
                      ad::Tensor& e) const;
  };

  GnsConfig config_;
  ad::Mlp node_encoder_;
  ad::Mlp edge_encoder_;
  std::vector<ProcessorLayer> layers_;
  ad::Mlp decoder_;
  bool row_rounds_ = false;  // processor rows fit forward_rows' stack
};

}  // namespace gns::core
