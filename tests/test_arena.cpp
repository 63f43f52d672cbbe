// Tensor arena: pooling engages only inside an ArenaScope, recycles only
// storage of destroyed TensorImpls (never aliases live tensors), serves a
// same-shape re-acquire from the class its recycled buffer filed into,
// zero-fills on acquire so results match unpooled allocations bitwise,
// survives NoGradGuard / nested-scope combinations, and is freed when a
// rollout or training call returns.

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "ad/arena.hpp"
#include "ad/nn.hpp"
#include "ad/ops.hpp"
#include "ad/tensor.hpp"
#include "core/trainer.hpp"

namespace gns::ad {
namespace {

/// Starts each test from an empty pool and drains it on exit so tests
/// cannot leak pooled buffers into each other.
struct PoolReset {
  PoolReset() { arena_clear(); }
  ~PoolReset() { arena_clear(); }
};

TEST(Arena, NoPoolingOutsideScope) {
  PoolReset reset;
  const ArenaStats s0 = arena_thread_stats();
  { Tensor t = Tensor::zeros(16, 16); }
  Tensor t2 = Tensor::zeros(16, 16);
  const ArenaStats s1 = arena_thread_stats();
  EXPECT_EQ(s1.recycled, s0.recycled);
  EXPECT_EQ(s1.hits, s0.hits);
  EXPECT_EQ(s1.misses, s0.misses);
}

TEST(Arena, RecyclesAcrossFrames) {
  // 16x16 = 256 elements is a power of two; 7x9 = 63 is not, so its miss
  // must allocate the class capacity (64) for the recycled buffer to file
  // into the class a 63-element acquire pops.
  for (const auto& [rows, cols] : {std::pair{16, 16}, std::pair{7, 9}}) {
    PoolReset reset;
    ArenaScope scope;
    const ArenaStats s0 = arena_thread_stats();
    { Tensor t = Tensor::zeros(rows, cols); }  // destroyed -> storage pooled
    const ArenaStats s1 = arena_thread_stats();
    EXPECT_EQ(s1.misses, s0.misses + 1);
    EXPECT_EQ(s1.recycled, s0.recycled + 1);
    EXPECT_GT(s1.bytes_pooled, 0u);
    Tensor again = Tensor::zeros(rows, cols);  // same size class -> hit
    const ArenaStats s2 = arena_thread_stats();
    EXPECT_EQ(s2.hits, s1.hits + 1) << rows << "x" << cols;
    EXPECT_EQ(s2.misses, s1.misses) << rows << "x" << cols;
    EXPECT_EQ(s2.bytes_pooled, 0u);
  }
}

TEST(Arena, FixedShapeMlpForwardMissesOnlyOnFirstFrame) {
  // Non-power-of-two widths throughout (7 rows; 6, 12, 5 columns).
  PoolReset reset;
  Rng rng(11);
  Mlp mlp(6, 12, 2, 5, rng, /*output_layer_norm=*/true);
  Rng drng(12);
  std::vector<Real> xdata(7 * 6);
  for (auto& v : xdata) v = drng.uniform(-1, 1);
  const Tensor x = Tensor::from_vector(7, 6, xdata);
  NoGradGuard no_grad;
  std::uint64_t misses_after_first = 0;
  for (int i = 0; i < 5; ++i) {
    const ArenaStats before = arena_thread_stats();
    {
      ArenaScope frame;
      Tensor y = mlp.forward(x);
    }
    const ArenaStats after = arena_thread_stats();
    if (i == 0) {
      EXPECT_GT(after.misses, before.misses);
    } else {
      misses_after_first += after.misses - before.misses;
      EXPECT_GT(after.hits, before.hits);
    }
  }
  EXPECT_EQ(misses_after_first, 0u);
}

TEST(Arena, AcquiredBuffersAreZeroFilled) {
  PoolReset reset;
  ArenaScope scope;
  {
    Tensor dirty = Tensor::full(8, 8, 3.5);
  }  // pooled with nonzero contents
  Tensor clean = Tensor::zeros(8, 8);
  for (Real v : clean.vec()) ASSERT_EQ(v, 0.0);
}

TEST(Arena, NeverAliasesLiveTensors) {
  PoolReset reset;
  ArenaScope scope;
  Tensor live = Tensor::full(8, 8, 7.0);
  const Real* live_ptr = live.data();
  { Tensor dying = Tensor::full(8, 8, 1.0); }
  Tensor recycled = Tensor::zeros(8, 8);
  EXPECT_NE(recycled.data(), live_ptr);
  for (Real v : live.vec()) ASSERT_EQ(v, 7.0);
}

TEST(Arena, NestedScopesKeepPoolingUntilOutermostExits) {
  PoolReset reset;
  ArenaScope outer;
  {
    ArenaScope inner;
    { Tensor t = Tensor::zeros(4, 4); }
  }
  // Inner scope exited; outer still active, so pooling continues.
  const ArenaStats s0 = arena_thread_stats();
  { Tensor t = Tensor::zeros(4, 4); }
  const ArenaStats s1 = arena_thread_stats();
  EXPECT_GT(s1.hits + s1.recycled, s0.hits + s0.recycled);
}

TEST(Arena, OutermostLifetimeFreesThePool) {
  PoolReset reset;
  {
    ArenaLifetime outer;
    {
      ArenaLifetime inner;
      ArenaScope frame;
      { Tensor t = Tensor::zeros(5, 5); }
    }
    // Inner lifetime exited inside the outer one: the pool survives.
    EXPECT_GT(arena_thread_stats().bytes_pooled, 0u);
  }
  EXPECT_EQ(arena_thread_stats().bytes_pooled, 0u);
}

TEST(Arena, BitwiseIdenticalResultsWithNoGradRollout) {
  // The contract the golden suite leans on: an op chain run inside
  // NoGradGuard + ArenaScope (tensors created and recycled every
  // iteration) produces exactly the values of the same chain run outside
  // any scope, i.e. on unpooled storage.
  Rng rng(7);
  Mlp mlp(6, 16, 2, 3, rng, /*output_layer_norm=*/true);
  std::vector<Real> xdata(5 * 6);
  Rng drng(8);
  for (auto& v : xdata) v = drng.uniform(-1, 1);
  const Tensor x = Tensor::from_vector(5, 6, xdata);

  auto run = [&](bool pooled) {
    NoGradGuard no_grad;
    Tensor h = x;
    for (int i = 0; i < 10; ++i) {
      std::optional<ArenaScope> frame;
      if (pooled) frame.emplace();
      h = relu(mlp.forward(h.detach()));
      h = concat_cols({h, h});
    }
    return h.vec();
  };

  PoolReset reset;
  const std::vector<Real> reference = run(/*pooled=*/false);
  const std::vector<Real> pooled = run(/*pooled=*/true);
  EXPECT_GT(arena_thread_stats().hits, 0u);
  EXPECT_EQ(pooled, reference);  // bitwise, not approximate
}

TEST(Arena, GradientsUnaffectedByPooling) {
  Rng rng(9);
  Mlp mlp(4, 8, 1, 2, rng);
  std::vector<Real> xdata(3 * 4);
  Rng drng(10);
  for (auto& v : xdata) v = drng.uniform(-1, 1);
  const Tensor x = Tensor::from_vector(3, 4, xdata);

  auto grads = [&](bool pooled) {
    mlp.zero_grad();
    for (int i = 0; i < 3; ++i) {
      std::optional<ArenaScope> frame;
      if (pooled) frame.emplace();
      Tensor loss = mean(square(mlp.forward(x)));
      loss.backward();
    }
    std::vector<Real> flat;
    for (const auto& p : mlp.parameters())
      flat.insert(flat.end(), p.grad().begin(), p.grad().end());
    return flat;
  };

  PoolReset reset;
  const std::vector<Real> reference = grads(/*pooled=*/false);
  const std::vector<Real> pooled = grads(/*pooled=*/true);
  EXPECT_EQ(pooled, reference);
}

// ---- Pool lifetime: freed when a rollout or training call returns ---------

io::Dataset drifting_dataset() {
  io::Trajectory traj;
  traj.dim = 2;
  traj.num_particles = 7;
  traj.domain_lo = {0.0, 0.0};
  traj.domain_hi = {1.0, 1.0};
  Rng rng(13);
  std::vector<double> base(14), vel(14);
  for (int i = 0; i < 14; ++i) {
    base[i] = rng.uniform(0.3, 0.7);
    vel[i] = rng.uniform(-0.004, 0.004);
  }
  for (int t = 0; t < 10; ++t) {
    std::vector<double> frame(14);
    for (int i = 0; i < 14; ++i) frame[i] = base[i] + vel[i] * t;
    traj.add_frame(std::move(frame));
  }
  io::Dataset ds;
  ds.trajectories.push_back(std::move(traj));
  return ds;
}

core::LearnedSimulator small_simulator(const io::Dataset& ds) {
  core::FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.3;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 1.0};
  core::GnsConfig gc;
  gc.latent = 12;
  gc.mlp_hidden = 12;
  gc.mlp_layers = 1;
  gc.message_passing_steps = 2;
  return core::make_simulator(ds, fc, gc);
}

TEST(ArenaLifetime, RolloutFreesItsPoolOnReturn) {
  PoolReset reset;
  const io::Dataset ds = drifting_dataset();
  const core::LearnedSimulator sim = small_simulator(ds);
  const core::Window win = sim.window_from_trajectory(ds.trajectories[0]);
  const ArenaStats before = arena_thread_stats();
  const auto frames = sim.rollout(win, 6, core::SceneContext{});
  const ArenaStats after = arena_thread_stats();
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_GT(after.hits, before.hits);  // the steps did share a pool
  EXPECT_EQ(after.bytes_pooled, 0u);
}

TEST(ArenaLifetime, TrainingFreesItsPoolOnReturn) {
  PoolReset reset;
  const io::Dataset ds = drifting_dataset();
  core::LearnedSimulator sim = small_simulator(ds);
  core::TrainConfig tc;
  tc.steps = 4;
  tc.log_every = 0;
  const ArenaStats before = arena_thread_stats();
  (void)core::train_gns(sim, ds, tc);
  const ArenaStats after = arena_thread_stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.bytes_pooled, 0u);
}

}  // namespace
}  // namespace gns::ad
