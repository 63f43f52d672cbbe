#pragma once

/// \file nn.hpp
/// Neural-network building blocks on top of the autograd engine: Linear,
/// LayerNorm, and the MLP used uniformly by the GNS encoder, processor and
/// decoder (per Sanchez-Gonzalez et al. 2020: hidden layers with ReLU, an
/// optional LayerNorm on the output).
///
/// Mlp::forward has two paths. With grad mode on it builds the op chain
/// (one linear_act per layer, then layer_norm), which the backward needs.
/// With grad mode off (ad::NoGradGuard, as every inference caller holds)
/// it runs forward_rows on tiles of kRowTile rows in one parallel region:
/// every layer and the LayerNorm on stack scratch, with no tensor per
/// layer. Both paths call the same row kernels (ops.hpp), so their outputs
/// are bitwise equal.

#include <memory>
#include <string>
#include <vector>

#include "ad/ops.hpp"
#include "ad/tensor.hpp"
#include "util/rng.hpp"

namespace gns::ad {

/// Base class for anything owning trainable parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameter tensors (leaf tensors with requires_grad).
  [[nodiscard]] virtual std::vector<Tensor> parameters() const = 0;

  /// Total scalar parameter count.
  [[nodiscard]] std::int64_t num_parameters() const {
    std::int64_t n = 0;
    for (const auto& p : parameters()) n += p.size();
    return n;
  }

  /// Zeroes gradients of all parameters.
  void zero_grad() const {
    for (auto p : parameters()) p.zero_grad();
  }

  /// Serializes all parameter values in `parameters()` order.
  [[nodiscard]] std::vector<Real> state() const;
  /// Restores parameter values from `state()` output.
  void load_state(const std::vector<Real>& values) const;
};

/// Affine map y = x·W + b with Glorot-uniform initialization.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng, bool bias = true);

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;

  [[nodiscard]] int in_features() const { return in_; }
  [[nodiscard]] int out_features() const { return out_; }
  [[nodiscard]] const Tensor& weight() const { return weight_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }

 private:
  int in_;
  int out_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [1, out]; undefined when bias=false
};

/// Per-row layer normalization with learnable gain and bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int features, Real eps = Real(1e-5));

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;

  [[nodiscard]] const Tensor& gamma() const { return gamma_; }
  [[nodiscard]] const Tensor& beta() const { return beta_; }
  [[nodiscard]] Real eps() const { return eps_; }

 private:
  Tensor gamma_;
  Tensor beta_;
  Real eps_;
};

/// Activation used between MLP layers.
enum class Activation { ReLU, Tanh };

/// Widest row, in values, that the untaped row path keeps on the stack: an
/// MLP layer's output, or a GNS processor MLP's concatenated input. Models
/// with a wider row run the op chain with grad mode off as well.
inline constexpr int kMaxRowWidth = 512;

/// Multilayer perceptron: `hidden_layers` hidden layers of `hidden_size`
/// with the chosen activation, a linear output layer, and an optional
/// LayerNorm on the output (GNS normalizes every latent MLP's output but
/// not the decoder's).
class Mlp : public Module {
 public:
  Mlp(int in_features, int hidden_size, int hidden_layers, int out_features,
      Rng& rng, bool output_layer_norm = false,
      Activation activation = Activation::ReLU);

  /// Op chain with grad mode on; forward_rows per tile of kRowTile rows,
  /// in one parallel region, with grad mode off (see the file comment).
  [[nodiscard]] Tensor forward(const Tensor& x) const;
  [[nodiscard]] std::vector<Tensor> parameters() const override;

  /// True when every layer's output fits the row path's stack scratch
  /// (at most kMaxRowWidth values).
  [[nodiscard]] bool fits_row_path() const {
    return max_width_ <= kMaxRowWidth;
  }
  /// `rows` (1 to kRowTile) rows through every layer and the optional
  /// LayerNorm, untaped: row r of y, y[r·ldy .. r·ldy + out_features),
  /// from row r of x, x[r·ldx .. r·ldx + in_features). Bitwise equal to
  /// those rows of forward(). Allocates nothing; requires fits_row_path().
  /// y must not alias x.
  void forward_rows(const Real* x, int ldx, Real* y, int ldy,
                    int rows) const;
  /// Multiply-adds per row over all layers (sizes parallel regions).
  [[nodiscard]] std::int64_t row_macs() const;

  [[nodiscard]] int in_features() const { return in_; }
  [[nodiscard]] int out_features() const { return out_; }

 private:
  int in_;
  int out_;
  int max_width_;  // widest layer output
  Activation activation_;
  std::vector<Linear> layers_;
  std::unique_ptr<LayerNorm> norm_;  // null unless output_layer_norm
};

}  // namespace gns::ad
