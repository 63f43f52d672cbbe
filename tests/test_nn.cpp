// NN modules: Linear, LayerNorm, Mlp — shapes, parameter bookkeeping,
// state round-trips, gradient flow, and a small regression convergence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "ad/gradcheck.hpp"
#include "ad/nn.hpp"
#include "ad/optim.hpp"
#include "util/simd.hpp"

namespace gns::ad {
namespace {

TEST(Linear, ShapesAndParamCount) {
  Rng rng(1);
  Linear lin(4, 3, rng);
  EXPECT_EQ(lin.in_features(), 4);
  EXPECT_EQ(lin.out_features(), 3);
  EXPECT_EQ(lin.num_parameters(), 4 * 3 + 3);
  Tensor y = lin.forward(Tensor::ones(5, 4));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(2);
  Linear lin(4, 3, rng, /*bias=*/false);
  EXPECT_EQ(lin.num_parameters(), 12);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(3);
  Linear lin(4, 3, rng);
  EXPECT_THROW(lin.forward(Tensor::ones(5, 5)), CheckError);
}

TEST(Linear, GlorotInitBounded) {
  Rng rng(4);
  Linear lin(10, 10, rng);
  const double limit = std::sqrt(6.0 / 20.0);
  for (Real w : lin.weight().vec()) {
    EXPECT_LE(std::abs(w), limit + 1e-12);
  }
}

TEST(Mlp, DepthAndWidths) {
  Rng rng(5);
  Mlp mlp(6, 16, 2, 3, rng, /*output_layer_norm=*/true);
  EXPECT_EQ(mlp.in_features(), 6);
  EXPECT_EQ(mlp.out_features(), 3);
  // 6->16, 16->16, 16->3 + LN(3)
  const std::int64_t expected =
      (6 * 16 + 16) + (16 * 16 + 16) + (16 * 3 + 3) + 2 * 3;
  EXPECT_EQ(mlp.num_parameters(), expected);
  Tensor y = mlp.forward(Tensor::ones(7, 6));
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 3);
}

TEST(Mlp, ZeroHiddenLayersIsAffine) {
  Rng rng(6);
  Mlp mlp(3, 99, 0, 2, rng);
  EXPECT_EQ(mlp.num_parameters(), 3 * 2 + 2);
}

TEST(Mlp, OutputLayerNormRowsAreNormalized) {
  Rng rng(7);
  Mlp mlp(4, 8, 1, 6, rng, /*output_layer_norm=*/true);
  std::vector<Real> data(3 * 4);
  Rng data_rng(8);
  for (auto& v : data) v = data_rng.uniform(-1, 1);
  Tensor y = mlp.forward(Tensor::from_vector(3, 4, std::move(data)));
  for (int r = 0; r < y.rows(); ++r) {
    double mean = 0;
    for (int c = 0; c < y.cols(); ++c) mean += y.at(r, c);
    EXPECT_NEAR(mean / y.cols(), 0.0, 1e-9);
  }
}

TEST(Module, StateRoundTrip) {
  Rng rng(9);
  Mlp a(4, 8, 2, 2, rng, true);
  Mlp b(4, 8, 2, 2, rng, true);
  // Same shape, different weights; loading a's state makes them agree.
  b.load_state(a.state());
  Tensor x = Tensor::ones(2, 4);
  Tensor ya = a.forward(x);
  Tensor yb = b.forward(x);
  for (int i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Module, LoadStateRejectsWrongLength) {
  Rng rng(10);
  Mlp mlp(2, 4, 1, 1, rng);
  std::vector<Real> bad(3, 0.0);
  EXPECT_THROW(mlp.load_state(bad), CheckError);
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(11);
  Linear lin(3, 2, rng);
  Tensor loss = sum(square(lin.forward(Tensor::ones(4, 3))));
  loss.backward();
  bool any_nonzero = false;
  for (const auto& p : lin.parameters())
    for (Real g : p.grad()) any_nonzero |= (g != 0.0);
  EXPECT_TRUE(any_nonzero);
  lin.zero_grad();
  for (const auto& p : lin.parameters())
    for (Real g : p.grad()) EXPECT_EQ(g, 0.0);
}

TEST(Mlp, GradCheckThroughWholeNetwork) {
  Rng rng(12);
  Mlp mlp(3, 6, 1, 2, rng, /*output_layer_norm=*/true, Activation::Tanh);
  std::vector<Real> xdata(2 * 3);
  Rng drng(13);
  for (auto& v : xdata) v = drng.uniform(-1, 1);
  Tensor x = Tensor::from_vector(2, 3, std::move(xdata));
  auto params = mlp.parameters();
  auto result = grad_check(
      [&](const std::vector<Tensor>&) {
        return mean(square(mlp.forward(x)));
      },
      params, /*eps=*/1e-6, /*tolerance=*/1e-5);
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

TEST(Mlp, LearnsLinearMap) {
  // y = 2 x0 − x1 + 0.5; an MLP + Adam should fit this quickly.
  Rng rng(14);
  Mlp mlp(2, 16, 1, 1, rng);
  Adam opt(mlp.parameters(), 1e-2);
  Rng data_rng(15);
  double final_loss = 1e9;
  for (int step = 0; step < 400; ++step) {
    std::vector<Real> x(16 * 2), y(16);
    for (int i = 0; i < 16; ++i) {
      x[2 * i] = data_rng.uniform(-1, 1);
      x[2 * i + 1] = data_rng.uniform(-1, 1);
      y[i] = 2.0 * x[2 * i] - x[2 * i + 1] + 0.5;
    }
    Tensor loss =
        mse_loss(mlp.forward(Tensor::from_vector(16, 2, std::move(x))),
                 Tensor::from_vector(16, 1, std::move(y)));
    opt.zero_grad();
    loss.backward();
    opt.step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 1e-3);
}

// ---- Fused linear kernels ---------------------------------------------------

Tensor random_input(int rows, int cols, unsigned seed) {
  Rng rng(seed);
  std::vector<Real> data(static_cast<std::size_t>(rows) * cols);
  for (auto& v : data) v = rng.uniform(-1, 1);
  return Tensor::from_vector(rows, cols, std::move(data));
}

TEST(FusedLinear, MatchesUnfusedChainBitwise) {
  // The fused kernel replicates matmul -> +bias -> activation's exact FP
  // operation sequence, so forward values must be equal, not just close.
  Rng rng(40);
  Linear lin(7, 5, rng);
  const Tensor x = random_input(9, 7, 41);
  const Tensor ref_relu = relu(lin.forward(x));
  const Tensor ref_tanh = tanh_op(lin.forward(x));
  const Tensor ref_id = lin.forward(x);
  EXPECT_EQ(linear_act(x, lin.weight(), lin.bias(), FusedAct::ReLU).vec(),
            ref_relu.vec());
  EXPECT_EQ(linear_act(x, lin.weight(), lin.bias(), FusedAct::Tanh).vec(),
            ref_tanh.vec());
  EXPECT_EQ(linear_act(x, lin.weight(), lin.bias(), FusedAct::Identity).vec(),
            ref_id.vec());
}

TEST(FusedLinear, NoBiasVariant) {
  Rng rng(42);
  Linear lin(4, 3, rng, /*bias=*/false);
  const Tensor x = random_input(6, 4, 43);
  const Tensor fused = linear_act(x, lin.weight(), Tensor{}, FusedAct::ReLU);
  EXPECT_EQ(fused.vec(), relu(matmul(x, lin.weight())).vec());
}

TEST(FusedLinear, RejectsBadShapes) {
  Rng rng(44);
  Linear lin(4, 3, rng);
  EXPECT_THROW(
      linear_act(Tensor::ones(2, 5), lin.weight(), lin.bias(), FusedAct::ReLU),
      CheckError);
  EXPECT_THROW(
      linear_act(Tensor::ones(2, 4), lin.weight(), Tensor::ones(1, 2),
                 FusedAct::ReLU),
      CheckError);
}

TEST(FusedLinear, GradCheckAllActivations) {
  for (FusedAct act :
       {FusedAct::Identity, FusedAct::ReLU, FusedAct::Tanh}) {
    Rng rng(45);
    Linear lin(3, 4, rng);
    Tensor x = random_input(5, 3, 46).set_requires_grad();
    std::vector<Tensor> params = lin.parameters();
    params.push_back(x);
    auto result = grad_check(
        [&](const std::vector<Tensor>&) {
          return mean(square(
              linear_act(x, lin.weight(), lin.bias(), act)));
        },
        params, /*eps=*/1e-6, /*tolerance=*/1e-5);
    EXPECT_TRUE(result.ok) << "act=" << static_cast<int>(act)
                           << " rel=" << result.max_rel_error;
  }
}

TEST(FusedLinear, GradientsMatchUnfusedBitwise) {
  // Same accumulation order in the backward kernels too: parameter and
  // input grads of the fused op equal the unfused chain's exactly.
  Rng rng(47);
  Linear lin(6, 4, rng);
  auto grads = [&](bool fused) {
    Tensor x = random_input(8, 6, 48).set_requires_grad();
    lin.zero_grad();
    Tensor y = fused
                   ? linear_act(x, lin.weight(), lin.bias(), FusedAct::Tanh)
                   : tanh_op(lin.forward(x));
    mean(square(y)).backward();
    std::vector<Real> flat = x.grad();
    for (const auto& p : lin.parameters())
      flat.insert(flat.end(), p.grad().begin(), p.grad().end());
    return flat;
  };
  EXPECT_EQ(grads(true), grads(false));
}

TEST(FusedLinear, MlpForwardMatchesUnfusedOracle) {
  // Mlp::forward runs every layer through linear_act; its outputs and
  // gradients must equal the hand-composed oracle chain Linear::forward ->
  // relu/tanh_op -> layer_norm exactly (ReLU and Tanh nets, with the
  // output LayerNorm). With grad mode off it takes the row path instead
  // (forward_rows per tile), whose outputs must equal the chain's too.
  for (Activation act : {Activation::ReLU, Activation::Tanh}) {
    Rng rng(49);
    Mlp mlp(5, 12, 2, 3, rng, /*output_layer_norm=*/true, act);
    // Oracle modules of the same shapes, holding copies of mlp's weights.
    Rng oracle_rng(0);
    std::vector<Linear> layers;
    layers.emplace_back(5, 12, oracle_rng);
    layers.emplace_back(12, 12, oracle_rng);
    layers.emplace_back(12, 3, oracle_rng);
    const LayerNorm norm(3);
    std::vector<Tensor> oracle_params;
    for (const Linear& layer : layers)
      for (const Tensor& p : layer.parameters()) oracle_params.push_back(p);
    for (const Tensor& p : norm.parameters()) oracle_params.push_back(p);
    const std::vector<Tensor> mlp_params = mlp.parameters();
    ASSERT_EQ(oracle_params.size(), mlp_params.size());
    for (std::size_t i = 0; i < mlp_params.size(); ++i) {
      Tensor dst = oracle_params[i];
      ASSERT_EQ(dst.vec().size(), mlp_params[i].vec().size());
      dst.vec() = mlp_params[i].vec();
    }

    auto run = [&](bool oracle) {
      Tensor x = random_input(7, 5, 50).set_requires_grad();
      std::vector<Tensor> params = oracle ? oracle_params : mlp_params;
      for (Tensor p : params) p.zero_grad();
      Tensor y;
      if (oracle) {
        y = x;
        for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
          y = layers[i].forward(y);
          y = act == Activation::ReLU ? relu(y) : tanh_op(y);
        }
        y = norm.forward(layers.back().forward(y));
      } else {
        y = mlp.forward(x);
      }
      mean(square(y)).backward();
      std::vector<Real> flat = y.vec();
      flat.insert(flat.end(), x.grad().begin(), x.grad().end());
      for (const auto& p : params)
        flat.insert(flat.end(), p.grad().begin(), p.grad().end());
      return flat;
    };
    const std::vector<Real> oracle = run(/*oracle=*/true);
    EXPECT_EQ(run(/*oracle=*/false), oracle);
    std::vector<Real> untaped;
    {
      NoGradGuard no_grad;
      untaped = mlp.forward(random_input(7, 5, 50)).vec();
    }
    ASSERT_LE(untaped.size(), oracle.size());
    EXPECT_EQ(untaped, std::vector<Real>(oracle.begin(),
                                         oracle.begin() + untaped.size()));
  }
}

TEST(FusedLinear, MlpGradCheckWithFusedPath) {
  Rng rng(51);
  Mlp mlp(3, 6, 1, 2, rng, /*output_layer_norm=*/true, Activation::Tanh);
  const Tensor x = random_input(2, 3, 52);
  auto params = mlp.parameters();
  auto result = grad_check(
      [&](const std::vector<Tensor>&) {
        return mean(square(mlp.forward(x)));
      },
      params, /*eps=*/1e-6, /*tolerance=*/1e-5);
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

// ---- linear_act_rows leaves -------------------------------------------------

const char* leaf_name(RowsLeaf leaf) {
  switch (leaf) {
    case RowsLeaf::Scalar:
      return "Scalar";
    case RowsLeaf::Avx2:
      return "Avx2";
    case RowsLeaf::Avx512:
      return "Avx512";
  }
  return "?";
}

bool same_bits(const std::vector<Real>& a, const std::vector<Real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0;
}

std::vector<Real> uniform_values(std::size_t n, Rng& rng) {
  std::vector<Real> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

/// About half the entries ±0 in equal shares, as a ReLU layer's output
/// with both zero signs; the rest uniform in (-1, 1).
std::vector<Real> half_zero_values(std::size_t n, Rng& rng) {
  std::vector<Real> v(n);
  for (auto& x : v) {
    const double u = rng.uniform(0, 1);
    x = u < 0.25 ? Real(0) : u < 0.5 ? -Real(0) : rng.uniform(-1, 1);
  }
  return v;
}

/// `rows` rows of x (row stride ldx) through `leaf`, into rows of stride
/// m + 3 whose padding holds a sentinel, so a write past column m shows in
/// the comparison too.
std::vector<Real> run_leaf(RowsLeaf leaf, const std::vector<Real>& x, int ldx,
                           const std::vector<Real>& w, const Real* b,
                           int rows, int k, int m, FusedAct act) {
  const int ldy = m + 3;
  std::vector<Real> y(static_cast<std::size_t>(rows) * ldy, Real(7.25));
  linear_act_rows_with(leaf, x.data(), ldx, w.data(), b, y.data(), ldy, rows,
                       k, m, act);
  return y;
}

class RowsLeafTest : public ::testing::TestWithParam<RowsLeaf> {
 protected:
  void SetUp() override {
    if (!rows_leaf_available(GetParam()))
      GTEST_SKIP() << "this CPU cannot run the " << leaf_name(GetParam())
                   << " leaf";
  }
};

TEST_P(RowsLeafTest, ShapeSweepMatchesScalarLeafBitwise) {
  // Full tiles and remainders (rows 1-9), every column-block path
  // (m = 1 and 2 for the decoder and attention heads, 18 and 21 for
  // tails), strided rows, and half the inputs ±0.
  Rng rng(60);
  for (int k : {3, 21, 32, 96}) {
    for (int m : {1, 2, 8, 18, 21, 32, 40, 64}) {
      const std::vector<Real> w =
          uniform_values(static_cast<std::size_t>(k) * m, rng);
      const std::vector<Real> bias = uniform_values(m, rng);
      for (int rows = 1; rows <= 9; ++rows) {
        const int ldx = k + 1;
        const std::vector<Real> x =
            half_zero_values(static_cast<std::size_t>(rows) * ldx, rng);
        for (FusedAct act :
             {FusedAct::Identity, FusedAct::ReLU, FusedAct::Tanh}) {
          for (const Real* b : {static_cast<const Real*>(nullptr),
                                bias.data()}) {
            EXPECT_TRUE(same_bits(
                run_leaf(GetParam(), x, ldx, w, b, rows, k, m, act),
                run_leaf(RowsLeaf::Scalar, x, ldx, w, b, rows, k, m, act)))
                << "k=" << k << " m=" << m << " rows=" << rows
                << " act=" << static_cast<int>(act)
                << " bias=" << (b != nullptr);
          }
        }
      }
    }
  }
}

TEST_P(RowsLeafTest, InfWeightTimesZeroInputMatchesOracleBitwise) {
  // No leaf skips a zero input, and neither does matmul: an infinite
  // weight meeting a zero input gives NaN in every leaf and in the
  // matmul -> add -> act oracle alike.
  constexpr int kRows = 6, kK = 5, kM = 11;
  Rng rng(61);
  std::vector<Real> w = uniform_values(kK * kM, rng);
  w[1 * kM + 0] = std::numeric_limits<Real>::infinity();
  w[3 * kM + 9] = -std::numeric_limits<Real>::infinity();
  std::vector<Real> x = uniform_values(kRows * kK, rng);
  for (int r = 0; r < kRows; ++r) {
    if (r % 2 == 0) x[r * kK + 1] = Real(0);
    if (r % 3 == 0) x[r * kK + 3] = -Real(0);
  }
  const std::vector<Real> bias = uniform_values(kM, rng);
  const Tensor xt = Tensor::from_vector(kRows, kK, x);
  const Tensor wt = Tensor::from_vector(kK, kM, w);
  const Tensor bt = Tensor::from_vector(1, kM, bias);
  const Tensor pre = add(matmul(xt, wt), bt);
  ASSERT_TRUE(std::isnan(pre.vec()[0]));
  for (FusedAct act : {FusedAct::Identity, FusedAct::ReLU, FusedAct::Tanh}) {
    const Tensor oracle = act == FusedAct::ReLU   ? relu(pre)
                          : act == FusedAct::Tanh ? tanh_op(pre)
                                                  : pre;
    std::vector<Real> got(kRows * kM);
    linear_act_rows_with(GetParam(), x.data(), kK, w.data(), bias.data(),
                         got.data(), kM, kRows, kK, kM, act);
    EXPECT_TRUE(same_bits(got, oracle.vec()))
        << "act=" << static_cast<int>(act);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Leaves, RowsLeafTest,
    ::testing::Values(RowsLeaf::Scalar, RowsLeaf::Avx2, RowsLeaf::Avx512),
    [](const ::testing::TestParamInfo<RowsLeaf>& param_info) {
      return std::string(leaf_name(param_info.param));
    });

TEST(RowsLeaf, ZeroInputTermsChangeNoBitWithFiniteWeights) {
  // The leaves add every term. A loop that skips zero inputs gives the
  // same bits when the weights are finite: the accumulator starts at +0.0
  // and is never −0, so adding a ±0 product returns it unchanged.
  constexpr int kRows = 9, kK = 32, kM = 21;
  Rng rng(62);
  const std::vector<Real> w = uniform_values(kK * kM, rng);
  const std::vector<Real> x = half_zero_values(kRows * kK, rng);
  std::vector<Real> skipped(kRows * kM, Real(0));
  for (int r = 0; r < kRows; ++r)
    for (int p = 0; p < kK; ++p) {
      const Real xv = x[r * kK + p];
      if (xv == Real(0)) continue;
      for (int j = 0; j < kM; ++j) skipped[r * kM + j] += xv * w[p * kM + j];
    }
  std::vector<Real> got(kRows * kM);
  linear_act_rows_with(RowsLeaf::Scalar, x.data(), kK, w.data(), nullptr,
                       got.data(), kM, kRows, kK, kM, FusedAct::Identity);
  EXPECT_TRUE(same_bits(got, skipped));
}

TEST(RowsLeaf, SimdToggleSelectsTheScalarLeaf) {
  const bool was_enabled = simd::enabled();
  simd::set_enabled(false);
  EXPECT_EQ(rows_leaf(), RowsLeaf::Scalar);
  simd::set_enabled(true);
  const RowsLeaf widest = rows_leaf_available(RowsLeaf::Avx512)
                              ? RowsLeaf::Avx512
                          : rows_leaf_available(RowsLeaf::Avx2)
                              ? RowsLeaf::Avx2
                              : RowsLeaf::Scalar;
  EXPECT_EQ(rows_leaf(), widest);
  simd::set_enabled(was_enabled);
}

}  // namespace
}  // namespace gns::ad
