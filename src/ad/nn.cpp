#include "ad/nn.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel_for.hpp"

namespace gns::ad {

std::vector<Real> Module::state() const {
  std::vector<Real> out;
  for (const auto& p : parameters()) {
    const auto& v = p.vec();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

void Module::load_state(const std::vector<Real>& values) const {
  std::size_t offset = 0;
  for (auto p : parameters()) {
    GNS_CHECK_MSG(offset + p.vec().size() <= values.size(),
                  "load_state: state vector too short");
    std::copy(values.begin() + offset,
              values.begin() + offset + p.vec().size(), p.vec().begin());
    offset += p.vec().size();
  }
  GNS_CHECK_MSG(offset == values.size(),
                "load_state: state vector too long (" << values.size()
                                                      << " vs " << offset
                                                      << " expected)");
}

Linear::Linear(int in_features, int out_features, Rng& rng, bool bias)
    : in_(in_features), out_(out_features) {
  GNS_CHECK(in_features > 0 && out_features > 0);
  const Real limit =
      std::sqrt(Real(6) / static_cast<Real>(in_features + out_features));
  std::vector<Real> w(static_cast<std::size_t>(in_features) * out_features);
  for (auto& v : w) v = static_cast<Real>(rng.uniform(-limit, limit));
  weight_ = Tensor::from_vector(in_features, out_features, std::move(w),
                                /*requires_grad=*/true);
  if (bias) {
    bias_ = Tensor::zeros(1, out_features, /*requires_grad=*/true);
  }
}

Tensor Linear::forward(const Tensor& x) const {
  GNS_CHECK_MSG(x.cols() == in_, "Linear expects " << in_ << " features, got "
                                                   << x.cols());
  Tensor y = matmul(x, weight_);
  if (bias_.defined()) y = add(y, bias_);
  return y;
}

std::vector<Tensor> Linear::parameters() const {
  std::vector<Tensor> out{weight_};
  if (bias_.defined()) out.push_back(bias_);
  return out;
}

LayerNorm::LayerNorm(int features, Real eps)
    : gamma_(Tensor::ones(1, features, /*requires_grad=*/true)),
      beta_(Tensor::zeros(1, features, /*requires_grad=*/true)),
      eps_(eps) {}

Tensor LayerNorm::forward(const Tensor& x) const {
  return layer_norm(x, gamma_, beta_, eps_);
}

std::vector<Tensor> LayerNorm::parameters() const { return {gamma_, beta_}; }

Mlp::Mlp(int in_features, int hidden_size, int hidden_layers,
         int out_features, Rng& rng, bool output_layer_norm,
         Activation activation)
    : in_(in_features),
      out_(out_features),
      max_width_(hidden_layers > 0 ? std::max(hidden_size, out_features)
                                   : out_features),
      activation_(activation) {
  GNS_CHECK(hidden_layers >= 0);
  int prev = in_features;
  for (int i = 0; i < hidden_layers; ++i) {
    layers_.emplace_back(prev, hidden_size, rng);
    prev = hidden_size;
  }
  layers_.emplace_back(prev, out_features, rng);
  if (output_layer_norm) norm_ = std::make_unique<LayerNorm>(out_features);
}

std::int64_t Mlp::row_macs() const {
  std::int64_t macs = 0;
  for (const Linear& layer : layers_)
    macs += static_cast<std::int64_t>(layer.in_features()) *
            layer.out_features();
  return macs;
}

void Mlp::forward_rows(const Real* x, int ldx, Real* y, int ldy,
                       int rows) const {
  GNS_DCHECK(rows >= 1 && rows <= kRowTile);
  // Layer outputs alternate between two stack tiles, each row as wide as
  // its layer; the last layer writes straight to y unless the LayerNorm
  // still has to read it.
  alignas(64) Real scratch[2][kRowTile * kMaxRowWidth];
  const FusedAct hidden_act =
      (activation_ == Activation::ReLU) ? FusedAct::ReLU : FusedAct::Tanh;
  const std::size_t last = layers_.size() - 1;
  const Real* in = x;
  int ldin = ldx;
  for (std::size_t i = 0; i <= last; ++i) {
    const Linear& layer = layers_[i];
    const bool to_y = i == last && !norm_;
    Real* out = to_y ? y : scratch[i % 2];
    const int ldout = to_y ? ldy : layer.out_features();
    linear_act_rows(in, ldin, layer.weight().data(),
                    layer.bias().defined() ? layer.bias().data() : nullptr,
                    out, ldout, rows, layer.in_features(),
                    layer.out_features(),
                    i == last ? FusedAct::Identity : hidden_act);
    in = out;
    ldin = ldout;
  }
  if (norm_)
    for (int r = 0; r < rows; ++r)
      layer_norm_row(in + static_cast<std::size_t>(r) * ldin,
                     norm_->gamma().data(), norm_->beta().data(),
                     norm_->eps(), y + static_cast<std::size_t>(r) * ldy,
                     out_);
}

Tensor Mlp::forward(const Tensor& x) const {
  if (!grad_enabled() && fits_row_path()) {
    GNS_CHECK_MSG(x.cols() == in_, "Mlp expects " << in_
                                                  << " features, got "
                                                  << x.cols());
    const int n = x.rows();
    Tensor out = make_op_result(n, out_, {}, {});
    const Real* xv = x.data();
    Real* yv = out.data();
    const std::int64_t tiles = (n + kRowTile - 1) / kRowTile;
    exec::parallel_for(tiles, n * row_macs() > 1 << 16,
                       [&](std::int64_t tile) {
      const int r0 = static_cast<int>(tile) * kRowTile;
      forward_rows(xv + static_cast<std::size_t>(r0) * in_, in_,
                   yv + static_cast<std::size_t>(r0) * out_, out_,
                   std::min(kRowTile, n - r0));
    });
    return out;
  }
  // One fused kernel per layer instead of matmul/add/act tensors; bitwise
  // identical to the Linear::forward -> relu/tanh_op chain (see ops.hpp).
  const FusedAct hidden_act =
      (activation_ == Activation::ReLU) ? FusedAct::ReLU : FusedAct::Tanh;
  Tensor h = x;
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    h = linear_act(h, layers_[i].weight(), layers_[i].bias(), hidden_act);
  }
  h = linear_act(h, layers_.back().weight(), layers_.back().bias(),
                 FusedAct::Identity);
  if (norm_) h = norm_->forward(h);
  return h;
}

std::vector<Tensor> Mlp::parameters() const {
  std::vector<Tensor> out;
  for (const auto& layer : layers_) {
    auto p = layer.parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  if (norm_) {
    auto p = norm_->parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

}  // namespace gns::ad
