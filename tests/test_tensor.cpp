// Tensor core: factories, shapes, autograd plumbing, guards.

#include <gtest/gtest.h>
#include <pthread.h>

#include "ad/ops.hpp"
#include "ad/tensor.hpp"

namespace gns::ad {
namespace {

TEST(Tensor, FactoriesProduceExpectedValues) {
  Tensor z = Tensor::zeros(2, 3);
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  for (Real v : z.vec()) EXPECT_EQ(v, 0.0);

  Tensor o = Tensor::ones(3, 1);
  for (Real v : o.vec()) EXPECT_EQ(v, 1.0);

  Tensor f = Tensor::full(1, 4, 2.5);
  for (Real v : f.vec()) EXPECT_EQ(v, 2.5);

  Tensor s = Tensor::scalar(-7.0);
  EXPECT_EQ(s.item(), -7.0);
}

TEST(Tensor, FromVectorRoundTrips) {
  Tensor t = Tensor::from_vector(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0);
  EXPECT_EQ(t.at(0, 1), 2.0);
  EXPECT_EQ(t.at(1, 0), 3.0);
  EXPECT_EQ(t.at(1, 1), 4.0);
}

TEST(Tensor, FromVectorRejectsSizeMismatch) {
  EXPECT_THROW(Tensor::from_vector(2, 2, {1, 2, 3}), CheckError);
}

TEST(Tensor, RejectsNonPositiveShapes) {
  EXPECT_THROW(Tensor::zeros(0, 3), CheckError);
  EXPECT_THROW(Tensor::zeros(3, -1), CheckError);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_THROW((void)Tensor::zeros(2, 1).item(), CheckError);
}

TEST(Tensor, UndefinedTensorThrowsOnUse) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW((void)t.rows(), CheckError);
}

TEST(Tensor, CopyAliasesStorage) {
  Tensor a = Tensor::zeros(1, 2);
  Tensor b = a;
  b.set(0, 0, 5.0);
  EXPECT_EQ(a.at(0, 0), 5.0);
}

TEST(Tensor, CloneIsDeep) {
  Tensor a = Tensor::ones(1, 2);
  Tensor b = a.clone();
  b.set(0, 0, 5.0);
  EXPECT_EQ(a.at(0, 0), 1.0);
}

TEST(Tensor, BackwardAccumulatesIntoLeaves) {
  Tensor x = Tensor::scalar(3.0, /*requires_grad=*/true);
  Tensor y = mul(x, x);  // y = x^2, dy/dx = 6
  y.backward();
  ASSERT_EQ(x.grad().size(), 1u);
  EXPECT_DOUBLE_EQ(x.grad()[0], 6.0);
}

TEST(Tensor, BackwardTwiceAccumulates) {
  Tensor x = Tensor::scalar(2.0, true);
  Tensor y = mul_scalar(x, 3.0);
  y.backward();
  y.backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 6.0);  // 3 + 3
}

TEST(Tensor, ZeroGradClears) {
  Tensor x = Tensor::scalar(2.0, true);
  mul(x, x).backward();
  x.zero_grad();
  EXPECT_DOUBLE_EQ(x.grad()[0], 0.0);
}

TEST(Tensor, BackwardRequiresScalarRoot) {
  Tensor x = Tensor::ones(2, 2, true);
  Tensor y = mul_scalar(x, 2.0);
  EXPECT_THROW(y.backward(), CheckError);
}

TEST(Tensor, DiamondGraphGradientIsExact) {
  // z = (x*x) + (x*x): dz/dx = 4x — shared subexpression visited once.
  Tensor x = Tensor::scalar(3.0, true);
  Tensor sq = mul(x, x);
  Tensor z = add(sq, sq);
  z.backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 12.0);
}

TEST(Tensor, NoGradGuardCutsTape) {
  Tensor x = Tensor::scalar(2.0, true);
  Tensor y;
  {
    NoGradGuard guard;
    EXPECT_FALSE(grad_enabled());
    y = mul(x, x);
  }
  EXPECT_TRUE(grad_enabled());
  EXPECT_FALSE(y.requires_grad());
}

TEST(Tensor, NoGradGuardNests) {
  NoGradGuard a;
  {
    NoGradGuard b;
    EXPECT_FALSE(grad_enabled());
  }
  EXPECT_FALSE(grad_enabled());
}

TEST(Tensor, DetachStopsGradient) {
  Tensor x = Tensor::scalar(2.0, true);
  Tensor y = mul(x, x).detach();
  Tensor z = mul(y, y);
  z.backward();
  EXPECT_TRUE(x.grad().empty());
}

TEST(Tensor, OpsWithoutGradLeavesRecordNothing) {
  Tensor a = Tensor::ones(2, 2);
  Tensor b = Tensor::ones(2, 2);
  Tensor c = add(a, b);
  EXPECT_FALSE(c.requires_grad());
}

TEST(Tensor, LongChainBackwardDoesNotOverflowStack) {
  // Neither the backward walk nor freeing the tape may recurse once per
  // node: build, differentiate and free a 20,000-node chain on a thread
  // with a 256 KiB stack.
  struct Chain {
    static void* run(void* grad_out) {
      Tensor x = Tensor::scalar(1.0, true);
      {
        Tensor y = x;
        for (int i = 0; i < 20000; ++i) y = add_scalar(y, 1e-6);
        sum(y).backward();
      }  // the whole chain is freed here
      *static_cast<Real*>(grad_out) = x.grad()[0];
      return nullptr;
    }
  };
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  Real grad = 0.0;
  pthread_t thread;
  const int created = pthread_create(&thread, &attr, &Chain::run, &grad);
  pthread_attr_destroy(&attr);
  ASSERT_EQ(created, 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  EXPECT_DOUBLE_EQ(grad, 1.0);
}

TEST(Tensor, ToStringMentionsShape) {
  Tensor t = Tensor::zeros(3, 2);
  EXPECT_NE(t.to_string().find("3x2"), std::string::npos);
}

}  // namespace
}  // namespace gns::ad
