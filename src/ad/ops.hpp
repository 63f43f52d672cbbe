#pragma once

/// \file ops.hpp
/// Differentiable operations on ad::Tensor.
///
/// Broadcasting follows NumPy on the two dimensions: an operand dimension of
/// size 1 stretches to match the other operand. All ops are pure (no
/// aliasing of inputs) and record exact reverse-mode closures.
///
/// The graph ops at the bottom (gather_rows / scatter_add_rows /
/// segment_softmax) are what make message passing differentiable: gather
/// reads per-edge endpoint features, scatter-add aggregates messages onto
/// receiver nodes, segment_softmax normalizes attention scores over each
/// node's incoming edges.

#include <vector>

#include "ad/index_map.hpp"
#include "ad/tensor.hpp"

namespace gns::ad {

// ---- Elementwise binary (broadcasting) ------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }

// ---- Scalar variants -------------------------------------------------------

Tensor add_scalar(const Tensor& a, Real s);
Tensor mul_scalar(const Tensor& a, Real s);
inline Tensor operator+(const Tensor& a, Real s) { return add_scalar(a, s); }
inline Tensor operator-(const Tensor& a, Real s) { return add_scalar(a, -s); }
inline Tensor operator*(const Tensor& a, Real s) { return mul_scalar(a, s); }
inline Tensor operator/(const Tensor& a, Real s) {
  return mul_scalar(a, Real(1) / s);
}
inline Tensor operator*(Real s, const Tensor& a) { return mul_scalar(a, s); }
inline Tensor operator-(const Tensor& a) { return mul_scalar(a, Real(-1)); }

// ---- Elementwise unary ------------------------------------------------------

Tensor relu(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor exp_op(const Tensor& a);
/// Natural log; clamps inputs below `floor` to keep the tape finite.
Tensor log_op(const Tensor& a, Real floor = Real(1e-12));
Tensor sqrt_op(const Tensor& a);
Tensor abs_op(const Tensor& a);
Tensor square(const Tensor& a);
/// Elementwise power with a constant (non-differentiated) exponent.
Tensor pow_scalar(const Tensor& a, Real exponent);
/// Clamp; gradient is passed through only inside (lo, hi).
Tensor clamp(const Tensor& a, Real lo, Real hi);
/// log(1 + e^x), numerically stable for large |x|.
Tensor softplus(const Tensor& a);
/// x for x>0, slope·x otherwise.
Tensor leaky_relu(const Tensor& a, Real slope = Real(0.01));

// ---- Matrix product ---------------------------------------------------------

/// [N,K] x [K,M] -> [N,M]; parallel over output rows (exec::parallel_for).
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor transpose(const Tensor& a);

// ---- Fused linear layer -----------------------------------------------------

/// Activation applied by the fused linear kernel.
enum class FusedAct { Identity, ReLU, Tanh };

/// Fused act(x·W + b): one pass over each output tile instead of three
/// tensors (matmul, +bias, activation). `b` is [1,M] or undefined (no
/// bias). Forward values and backward gradients are bitwise identical to
/// the unfused op chain — the kernels replicate matmul's accumulation
/// order exactly — so Mlp::forward uses it for every layer and the chain
/// (Linear::forward, then relu/tanh_op) stays as the test oracle
/// (tests/test_nn.cpp asserts equality).
Tensor linear_act(const Tensor& x, const Tensor& w, const Tensor& b,
                  FusedAct act);

/// Always true: linear_act is Mlp's only forward path. Kept as a query so
/// configuration stamps can report it.
[[nodiscard]] inline bool fused_linear_enabled() { return true; }

// ---- Reductions -------------------------------------------------------------

/// Sum of all elements -> [1,1].
Tensor sum(const Tensor& a);
/// Mean of all elements -> [1,1].
Tensor mean(const Tensor& a);
/// Column sums -> [1,C].
Tensor sum_rows(const Tensor& a);
/// Row sums -> [N,1].
Tensor sum_cols(const Tensor& a);
/// Mean squared error between same-shape tensors -> [1,1].
Tensor mse_loss(const Tensor& pred, const Tensor& target);
/// Mean of |a| -> [1,1] (the L1 sparsity penalty on GNS messages, §6).
Tensor l1_norm(const Tensor& a);
/// Maximum element -> [1,1]; gradient routes to the (first) argmax.
Tensor max_reduce(const Tensor& a);
/// Minimum element -> [1,1]; gradient routes to the (first) argmin.
Tensor min_reduce(const Tensor& a);
/// Huber (smooth-L1) loss with threshold delta -> [1,1]. Robust variant
/// of MSE for heavy-tailed targets.
Tensor huber_loss(const Tensor& pred, const Tensor& target,
                  Real delta = Real(1));

// ---- Shape / graph ops -------------------------------------------------------

/// Horizontal concatenation of tensors with equal row counts.
Tensor concat_cols(const std::vector<Tensor>& parts);
/// Vertical concatenation of tensors with equal column counts.
Tensor concat_rows(const std::vector<Tensor>& parts);
/// Columns [start, start+len) of `a`.
Tensor slice_cols(const Tensor& a, int start, int len);
/// Rows [start, start+len) of `a` (the per-member read-back of a
/// block-diagonal batched forward — see graph/batch.hpp).
Tensor slice_rows(const Tensor& a, int start, int len);
/// Rows `index[i]` of `a` -> [index.size(), C]. Indices may repeat.
/// The IndexMap overloads skip per-call index validation (the map is
/// validated once at construction) and give the backward/forward
/// reductions their CSR transpose; build one per graph and reuse it
/// across message rounds (core::GraphIndex does this).
Tensor gather_rows(const Tensor& a, const IndexMap& index);
Tensor gather_rows(const Tensor& a, const std::vector<int>& index);
/// out[index[i], :] += a[i, :]; result has `num_rows` rows (the map's
/// num_buckets for the IndexMap overload).
Tensor scatter_add_rows(const Tensor& a, const IndexMap& index);
Tensor scatter_add_rows(const Tensor& a, const std::vector<int>& index,
                        int num_rows);
/// Softmax of scores [E,1] within segments given by `segment` (values in
/// [0, num_segments)); used for per-receiver attention normalization.
Tensor segment_softmax(const Tensor& scores, const IndexMap& segment);
Tensor segment_softmax(const Tensor& scores, const std::vector<int>& segment,
                       int num_segments);
/// Fused relative-geometry edge features over `positions` [N,d]:
/// out[e, 0..d) = (x[receivers[e]] - x[senders[e]]) * inv_radius and
/// out[e, d] = sqrt(|out[e, 0..d)|² + eps) — bitwise equal to the
/// gather/sub/mul_scalar/square/sum_cols/add_scalar/sqrt/concat_cols
/// chain it replaces, in one row-local pass. Backward scatters per node
/// through the CSR maps (fixed order, thread-invariant).
Tensor radius_edge_features(const Tensor& positions, const IndexMap& senders,
                            const IndexMap& receivers, Real inv_radius,
                            Real eps = Real(1e-12));
/// Per-row layer normalization with learnable gain/bias [1,C].
Tensor layer_norm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                  Real eps = Real(1e-5));

}  // namespace gns::ad
