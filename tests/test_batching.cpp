// Block-diagonal batching: graph merge bookkeeping, bitwise equivalence
// of batched vs independent GNS steps/rollouts, and finite-difference
// gradient checks of the segmented gather/scatter and attention-weighted
// message paths that batching leans on.

#include <gtest/gtest.h>

#include <cmath>

#include "ad/gradcheck.hpp"
#include "ad/ops.hpp"
#include "core/batched_rollout.hpp"
#include "core/trainer.hpp"
#include "graph/batch.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gns::core {
namespace {

io::Trajectory tiny_trajectory(int particles, std::uint64_t seed,
                               double material) {
  io::Trajectory traj;
  traj.dim = 2;
  traj.num_particles = particles;
  traj.domain_lo = {0.0, 0.0};
  traj.domain_hi = {1.0, 1.0};
  traj.material_param = material;
  Rng rng(seed);
  std::vector<double> base(static_cast<std::size_t>(particles) * 2);
  for (auto& v : base) v = rng.uniform(0.25, 0.75);
  for (int t = 0; t < 10; ++t) {
    std::vector<double> frame(base.size());
    for (std::size_t i = 0; i < base.size(); ++i)
      frame[i] = base[i] + 0.0015 * t * static_cast<double>(i % 3);
    traj.add_frame(std::move(frame));
  }
  return traj;
}

/// Attention + material model: exercises the segment-softmax message path
/// through the batched forward.
LearnedSimulator attention_sim() {
  io::Dataset ds;
  ds.trajectories.push_back(tiny_trajectory(6, 11, 0.5));
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.4;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 1.0};
  fc.material_feature = true;
  GnsConfig gc;
  gc.latent = 8;
  gc.mlp_hidden = 8;
  gc.mlp_layers = 1;
  gc.message_passing_steps = 2;
  gc.attention = true;
  return make_simulator(ds, fc, gc, /*seed=*/91);
}

Window window_of(const LearnedSimulator& sim, const io::Trajectory& traj) {
  return sim.window_from_trajectory(traj);
}

SceneContext material_context(double material) {
  SceneContext ctx;
  ctx.material = ad::Tensor::scalar(material);
  return ctx;
}

/// Drives a BatchedRollout to completion one step_once at a time, as a
/// serving chain does.
std::vector<std::vector<std::vector<double>>> roll_out(
    std::shared_ptr<const LearnedSimulator> sim,
    const std::vector<Window>& windows, const std::vector<int>& steps,
    const std::vector<SceneContext>& contexts,
    const BatchedRollout::StepGate& gate = nullptr) {
  BatchedRollout rollout(std::move(sim), windows, steps, contexts);
  while (rollout.step_once(gate)) {
  }
  return rollout.take_frames();
}

TEST(GraphBatch, OffsetsSegmentsAndMergedIndices) {
  graph::Graph a;
  a.num_nodes = 3;
  a.add_edge(0, 1);
  a.add_edge(2, 1);
  graph::Graph b;
  b.num_nodes = 2;
  b.add_edge(1, 0);
  graph::Graph c;
  c.num_nodes = 4;  // zero edges allowed at the batching layer

  graph::GraphBatch batch = graph::batch_graphs({a, b, c});
  EXPECT_EQ(batch.num_graphs(), 3);
  EXPECT_EQ(batch.merged.num_nodes, 9);
  EXPECT_EQ(batch.merged.num_edges(), 3);
  EXPECT_EQ(batch.nodes_of(0), 3);
  EXPECT_EQ(batch.nodes_of(1), 2);
  EXPECT_EQ(batch.nodes_of(2), 4);
  EXPECT_EQ(batch.edges_of(0), 2);
  EXPECT_EQ(batch.edges_of(1), 1);
  EXPECT_EQ(batch.edges_of(2), 0);

  // Member 1's edge (1 -> 0) lands offset by member 0's node count.
  EXPECT_EQ(batch.merged.senders[2], 3 + 1);
  EXPECT_EQ(batch.merged.receivers[2], 3 + 0);

  const std::vector<int> seg = batch.node_segments();
  ASSERT_EQ(seg.size(), 9u);
  EXPECT_EQ(seg[0], 0);
  EXPECT_EQ(seg[2], 0);
  EXPECT_EQ(seg[3], 1);
  EXPECT_EQ(seg[4], 1);
  EXPECT_EQ(seg[5], 2);
  EXPECT_EQ(seg[8], 2);
}

TEST(SliceRows, ValuesBoundsAndGradient) {
  ad::Tensor a = ad::Tensor::from_vector(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  ad::Tensor s = ad::slice_rows(a, 1, 2);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.cols(), 2);
  EXPECT_EQ(s.at(0, 0), 3.0);
  EXPECT_EQ(s.at(1, 1), 6.0);
  EXPECT_THROW(ad::slice_rows(a, 3, 2), CheckError);

  Rng rng(5);
  std::vector<ad::Real> v(8);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  auto result = ad::grad_check(
      [](const std::vector<ad::Tensor>& in) {
        return ad::sum(ad::square(ad::slice_rows(in[0], 1, 2)));
      },
      {ad::Tensor::from_vector(4, 2, std::move(v))});
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error;
}

TEST(BatchedStep, MatchesIndependentSteps) {
  const auto sim = std::make_shared<const LearnedSimulator>(attention_sim());

  // Four members with different particle counts and materials.
  const std::vector<int> sizes = {6, 4, 9, 6};
  const std::vector<double> materials = {0.5, 0.3, 0.7, 0.45};
  std::vector<Window> windows;
  std::vector<SceneContext> contexts;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    io::Trajectory traj =
        tiny_trajectory(sizes[g], 100 + g, materials[g]);
    windows.push_back(window_of(*sim, traj));
    contexts.push_back(material_context(materials[g]));
  }

  ad::NoGradGuard no_grad;
  graph::GraphBatch batch;
  const GnsOutput out = sim->forward_batch(windows, contexts, batch);
  ASSERT_EQ(batch.num_graphs(), 4);
  EXPECT_EQ(out.acceleration.rows(), batch.merged.num_nodes);

  const std::vector<ad::Tensor> next = sim->step_batch(windows, contexts);
  ASSERT_EQ(next.size(), windows.size());
  for (std::size_t g = 0; g < windows.size(); ++g) {
    const ad::Tensor ref = sim->step(windows[g], contexts[g]);
    ASSERT_EQ(next[g].rows(), ref.rows());
    ASSERT_EQ(next[g].cols(), ref.cols());
    EXPECT_EQ(tensor_to_frame(next[g]), tensor_to_frame(ref))
        << "member " << g;
  }
}

TEST(BatchedRollout, CompactsEarlyFinishersAndMatchesSingles) {
  const auto sim = std::make_shared<const LearnedSimulator>(attention_sim());

  const std::vector<int> sizes = {6, 5, 7};
  const std::vector<int> steps = {7, 2, 4};  // staggered finish -> compaction
  const std::vector<double> materials = {0.5, 0.6, 0.4};
  std::vector<Window> windows;
  std::vector<SceneContext> contexts;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    io::Trajectory traj = tiny_trajectory(sizes[g], 200 + g, materials[g]);
    windows.push_back(window_of(*sim, traj));
    contexts.push_back(material_context(materials[g]));
  }

  const auto frames = roll_out(sim, windows, steps, contexts);
  ASSERT_EQ(frames.size(), windows.size());
  for (std::size_t g = 0; g < windows.size(); ++g)
    EXPECT_EQ(frames[g], sim->rollout(windows[g], steps[g], contexts[g]))
        << "member " << g;
}

TEST(BatchedRollout, GateDropsMemberWithPartialFrames) {
  const auto sim = std::make_shared<const LearnedSimulator>(attention_sim());

  std::vector<Window> windows;
  std::vector<SceneContext> contexts;
  for (int g = 0; g < 2; ++g) {
    io::Trajectory traj = tiny_trajectory(6, 300 + g, 0.5);
    windows.push_back(window_of(*sim, traj));
    contexts.push_back(material_context(0.5));
  }

  // Member 0 is stopped by the gate after its 3rd frame; member 1 runs out.
  int calls_member0 = 0;
  const auto frames =
      roll_out(sim, windows, {10, 6}, contexts, [&calls_member0](int member) {
        if (member == 0) return ++calls_member0 <= 3;
        return true;
      });
  EXPECT_EQ(frames[0].size(), 3u);  // partial prefix preserved
  // Both members' frames equal their solo rollouts (compaction does not
  // perturb numerics).
  EXPECT_EQ(frames[0], sim->rollout(windows[0], 3, contexts[0]));
  EXPECT_EQ(frames[1], sim->rollout(windows[1], 6, contexts[1]));
}

TEST(BatchedFeatures, MaterialColumnIsSegmented) {
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 1;
  fc.connectivity_radius = 0.5;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 1.0};
  fc.material_feature = true;

  io::NormalizationStats stats;
  stats.vel_mean = {0.0, 0.0};
  stats.vel_std = {1.0, 1.0};
  stats.acc_mean = {0.0, 0.0};
  stats.acc_std = {1.0, 1.0};
  Normalizer norm(stats);

  auto frame = [](int n, double v) {
    std::vector<ad::Real> data(static_cast<std::size_t>(n) * 2, v);
    return ad::Tensor::from_vector(n, 2, std::move(data));
  };
  std::vector<std::vector<ad::Tensor>> windows = {
      {frame(2, 0.4), frame(2, 0.41)}, {frame(3, 0.6), frame(3, 0.61)}};
  std::vector<SceneContext> contexts = {material_context(0.25),
                                        material_context(0.75)};

  ad::Tensor feats = build_batched_node_features(fc, norm, windows, contexts);
  ASSERT_EQ(feats.rows(), 5);
  ASSERT_EQ(feats.cols(), fc.node_feature_count());
  const int mat_col = feats.cols() - 1;
  EXPECT_EQ(feats.at(0, mat_col), 0.25);
  EXPECT_EQ(feats.at(1, mat_col), 0.25);
  EXPECT_EQ(feats.at(2, mat_col), 0.75);
  EXPECT_EQ(feats.at(4, mat_col), 0.75);
}

// ---- Gradcheck sweep over the segmented message-passing paths --------------

graph::GraphBatch two_member_batch() {
  graph::Graph a;
  a.num_nodes = 3;
  a.add_edge(0, 1);
  a.add_edge(2, 1);
  a.add_edge(1, 0);
  a.add_edge(1, 2);
  graph::Graph b;
  b.num_nodes = 2;
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  return graph::batch_graphs({a, b});
}

ad::Tensor random_tensor(int r, int c, Rng& rng) {
  std::vector<ad::Real> v(static_cast<std::size_t>(r) * c);
  for (auto& x : v) x = rng.uniform(-1.5, 1.5);
  return ad::Tensor::from_vector(r, c, std::move(v));
}

TEST(BatchedGradcheck, SegmentedGatherScatterRoundTrip) {
  const graph::GraphBatch batch = two_member_batch();
  Rng rng(31);
  auto result = ad::grad_check(
      [&batch](const std::vector<ad::Tensor>& in) {
        // Node features -> per-edge messages (sender - receiver gathers)
        // -> scatter-add back onto receivers: the segmented aggregation
        // spine of the batched processor layer.
        ad::Tensor xs = ad::gather_rows(in[0], batch.merged.senders);
        ad::Tensor xr = ad::gather_rows(in[0], batch.merged.receivers);
        ad::Tensor msg = ad::mul(ad::tanh_op(xs), xr);
        ad::Tensor agg = ad::scatter_add_rows(msg, batch.merged.receivers,
                                              batch.merged.num_nodes);
        return ad::sum(ad::square(agg));
      },
      {random_tensor(batch.merged.num_nodes, 3, rng)});
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error
                         << " max rel err " << result.max_rel_error;
}

TEST(BatchedGradcheck, AttentionWeightedMessagePath) {
  const graph::GraphBatch batch = two_member_batch();
  const int e = batch.merged.num_edges();
  Rng rng(37);
  auto result = ad::grad_check(
      [&batch](const std::vector<ad::Tensor>& in) {
        // scores -> per-receiver segment softmax -> weighted messages ->
        // scatter: the attention extension through a block-diagonal graph.
        ad::Tensor alpha = ad::segment_softmax(in[0], batch.merged.receivers,
                                               batch.merged.num_nodes);
        ad::Tensor weighted = ad::mul(in[1], alpha);
        ad::Tensor agg = ad::scatter_add_rows(weighted,
                                              batch.merged.receivers,
                                              batch.merged.num_nodes);
        return ad::sum(ad::square(agg));
      },
      {random_tensor(e, 1, rng), random_tensor(e, 4, rng)});
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error
                         << " max rel err " << result.max_rel_error;
}

TEST(BatchedGradcheck, SliceRowsPerMemberReadback) {
  const graph::GraphBatch batch = two_member_batch();
  Rng rng(41);
  auto result = ad::grad_check(
      [&batch](const std::vector<ad::Tensor>& in) {
        // The batched integrator reads each member's acceleration rows
        // back out of the merged decode; both slices must carry gradient.
        ad::Tensor a0 =
            ad::slice_rows(in[0], batch.node_offset[0], batch.nodes_of(0));
        ad::Tensor a1 =
            ad::slice_rows(in[0], batch.node_offset[1], batch.nodes_of(1));
        return ad::add(ad::sum(ad::square(a0)),
                       ad::sum(ad::mul_scalar(a1, 0.5)));
      },
      {random_tensor(batch.merged.num_nodes, 2, rng)});
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error;
}

}  // namespace
}  // namespace gns::core
