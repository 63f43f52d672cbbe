#include "ad/nn.hpp"

#include <cmath>

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
    : in_(in_features), out_(out_features), activation_(activation) {
  GNS_CHECK(hidden_layers >= 0);
  int prev = in_features;
  for (int i = 0; i < hidden_layers; ++i) {
    layers_.emplace_back(prev, hidden_size, rng);
    prev = hidden_size;
  }
  layers_.emplace_back(prev, out_features, rng);
  if (output_layer_norm) norm_ = std::make_unique<LayerNorm>(out_features);
}

Tensor Mlp::forward(const Tensor& x) const {
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
