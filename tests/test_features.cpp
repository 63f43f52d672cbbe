// Feature construction: shapes, physical semantics (velocity whitening,
// boundary clipping, material column), and differentiability through the
// whole feature pipeline (the property the inverse solver depends on).

#include <gtest/gtest.h>

#include "ad/gradcheck.hpp"
#include "core/features.hpp"
#include "core/simulator.hpp"  // Window alias

namespace gns::core {
namespace {

io::NormalizationStats unit_stats(int dim) {
  io::NormalizationStats stats;
  stats.vel_mean.assign(dim, 0.0);
  stats.vel_std.assign(dim, 1.0);
  stats.acc_mean.assign(dim, 0.0);
  stats.acc_std.assign(dim, 1.0);
  return stats;
}

FeatureConfig small_config() {
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 2;
  fc.connectivity_radius = 0.5;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 1.0};
  return fc;
}

Window static_window(const FeatureConfig& fc,
                     std::vector<ad::Real> positions, int n) {
  Window w;
  for (int i = 0; i < fc.window_size(); ++i)
    w.push_back(ad::Tensor::from_vector(n, fc.dim, positions));
  return w;
}

TEST(FeatureConfig, CountsAreConsistent) {
  FeatureConfig fc = small_config();
  EXPECT_EQ(fc.node_feature_count(), 2 * 2 + 4);
  EXPECT_EQ(fc.edge_feature_count(), 3);
  EXPECT_EQ(fc.window_size(), 3);
  fc.material_feature = true;
  fc.static_node_attrs = 2;
  EXPECT_EQ(fc.node_feature_count(), 2 * 2 + 4 + 1 + 2);
}

TEST(Features, FrameTensorRoundTrip) {
  std::vector<double> flat = {1, 2, 3, 4, 5, 6};
  ad::Tensor t = frame_to_tensor(flat, 2);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(tensor_to_frame(t), flat);
}

TEST(Features, NodeFeatureShape) {
  FeatureConfig fc = small_config();
  Normalizer norm(unit_stats(2));
  Window w = static_window(fc, {0.2, 0.2, 0.8, 0.8}, 2);
  ad::Tensor feats = build_node_features(fc, norm, w, SceneContext{});
  EXPECT_EQ(feats.rows(), 2);
  EXPECT_EQ(feats.cols(), fc.node_feature_count());
}

TEST(Features, StaticWindowHasZeroVelocityColumns) {
  FeatureConfig fc = small_config();
  Normalizer norm(unit_stats(2));
  Window w = static_window(fc, {0.4, 0.6}, 1);
  ad::Tensor feats = build_node_features(fc, norm, w, SceneContext{});
  for (int c = 0; c < fc.dim * fc.history; ++c) {
    EXPECT_DOUBLE_EQ(feats.at(0, c), 0.0);
  }
}

TEST(Features, VelocityIsWhitenedByStats) {
  FeatureConfig fc = small_config();
  io::NormalizationStats stats = unit_stats(2);
  stats.vel_mean = {0.1, 0.0};
  stats.vel_std = {0.2, 0.5};
  Normalizer norm(stats);
  Window w;
  w.push_back(ad::Tensor::from_vector(1, 2, {0.0, 0.0}));
  w.push_back(ad::Tensor::from_vector(1, 2, {0.3, 0.0}));  // v=(0.3,0)
  w.push_back(ad::Tensor::from_vector(1, 2, {0.3, 0.5}));  // v=(0,0.5)
  ad::Tensor feats = build_node_features(fc, norm, w, SceneContext{});
  EXPECT_NEAR(feats.at(0, 0), (0.3 - 0.1) / 0.2, 1e-12);  // first vel x
  EXPECT_NEAR(feats.at(0, 3), (0.5 - 0.0) / 0.5, 1e-12);  // second vel y
}

TEST(Features, BoundaryDistancesClipped) {
  FeatureConfig fc = small_config();  // radius 0.5
  Normalizer norm(unit_stats(2));
  // Particle at x=0.1: dist to lo = 0.1/0.5 = 0.2; to hi = 0.9/0.5 > 1 ->
  // clipped to 1.
  Window w = static_window(fc, {0.1, 0.5}, 1);
  ad::Tensor feats = build_node_features(fc, norm, w, SceneContext{});
  const int base = fc.dim * fc.history;
  EXPECT_NEAR(feats.at(0, base + 0), 0.2, 1e-12);   // x to lo
  EXPECT_NEAR(feats.at(0, base + 1), 1.0, 1e-12);   // x to hi (clipped)
  EXPECT_NEAR(feats.at(0, base + 2), 1.0, 1e-12);   // y to lo (clipped)
  EXPECT_NEAR(feats.at(0, base + 3), 1.0, 1e-12);   // y to hi (clipped)
}

TEST(Features, MaterialColumnBroadcasts) {
  FeatureConfig fc = small_config();
  fc.material_feature = true;
  Normalizer norm(unit_stats(2));
  SceneContext ctx;
  ctx.material = ad::Tensor::scalar(0.577);
  Window w = static_window(fc, {0.5, 0.5, 0.6, 0.6}, 2);
  ad::Tensor feats = build_node_features(fc, norm, w, ctx);
  const int col = fc.node_feature_count() - 1;
  EXPECT_NEAR(feats.at(0, col), 0.577, 1e-12);
  EXPECT_NEAR(feats.at(1, col), 0.577, 1e-12);
}

TEST(Features, MissingMaterialThrows) {
  FeatureConfig fc = small_config();
  fc.material_feature = true;
  Normalizer norm(unit_stats(2));
  Window w = static_window(fc, {0.5, 0.5}, 1);
  EXPECT_THROW(build_node_features(fc, norm, w, SceneContext{}),
               CheckError);
}

TEST(Features, StaticAttrsAppended) {
  FeatureConfig fc = small_config();
  fc.static_node_attrs = 2;
  Normalizer norm(unit_stats(2));
  SceneContext ctx;
  ctx.node_attrs = ad::Tensor::from_vector(2, 2, {1, 2, 3, 4});
  Window w = static_window(fc, {0.5, 0.5, 0.6, 0.6}, 2);
  ad::Tensor feats = build_node_features(fc, norm, w, ctx);
  EXPECT_DOUBLE_EQ(feats.at(1, fc.node_feature_count() - 2), 3.0);
  EXPECT_DOUBLE_EQ(feats.at(1, fc.node_feature_count() - 1), 4.0);
}

TEST(Features, SceneContextFromTrajectory) {
  FeatureConfig fc = small_config();
  fc.material_feature = true;
  fc.static_node_attrs = 1;
  io::Trajectory traj;
  traj.dim = 2;
  traj.num_particles = 2;
  traj.material_param = 0.7;
  traj.attr_dim = 1;
  traj.node_attrs = {5.0, 6.0};
  SceneContext ctx = SceneContext::from_trajectory(fc, traj);
  EXPECT_DOUBLE_EQ(ctx.material.item(), 0.7);
  EXPECT_DOUBLE_EQ(ctx.node_attrs.at(1, 0), 6.0);
}

TEST(Features, GraphFromPositions) {
  FeatureConfig fc = small_config();
  fc.connectivity_radius = 0.3;
  ad::Tensor pos =
      ad::Tensor::from_vector(3, 2, {0.1, 0.1, 0.25, 0.1, 0.9, 0.9});
  graph::Graph g = build_graph(fc, pos);
  EXPECT_EQ(g.num_nodes, 3);
  EXPECT_EQ(g.num_edges(), 2);  // only the close pair, both directions
}

TEST(Features, EdgeFeaturesScaledRelativeGeometry) {
  FeatureConfig fc = small_config();  // radius 0.5
  ad::Tensor pos = ad::Tensor::from_vector(2, 2, {0.0, 0.0, 0.3, 0.4});
  graph::Graph g = build_graph(fc, pos);
  ASSERT_EQ(g.num_edges(), 2);
  ad::Tensor ef = build_edge_features(fc, pos, g);
  EXPECT_EQ(ef.cols(), 3);
  // Edge 0 -> receiver 0, sender 1 (sorted order): disp = (x0-x1)/R.
  for (int e = 0; e < 2; ++e) {
    const double dx = ef.at(e, 0), dy = ef.at(e, 1), d = ef.at(e, 2);
    EXPECT_NEAR(std::abs(dx), 0.6, 1e-9);
    EXPECT_NEAR(std::abs(dy), 0.8, 1e-9);
    EXPECT_NEAR(d, 1.0, 1e-6);  // |(0.3,0.4)|/0.5 = 1
  }
}

TEST(Features, OneDimensionalPositionsSupported) {
  FeatureConfig fc;
  fc.dim = 1;
  fc.history = 2;
  fc.connectivity_radius = 0.2;
  fc.domain_lo = {0.0};
  fc.domain_hi = {1.0};
  Normalizer norm(unit_stats(1));
  ad::Tensor pos = ad::Tensor::from_vector(3, 1, {0.1, 0.2, 0.8});
  graph::Graph g = build_graph(fc, pos);
  EXPECT_EQ(g.num_edges(), 2);
  Window w{pos, pos, pos};
  ad::Tensor feats = build_node_features(fc, norm, w, SceneContext{});
  EXPECT_EQ(feats.cols(), fc.node_feature_count());
  ad::Tensor ef = build_edge_features(fc, pos, g);
  EXPECT_EQ(ef.cols(), 2);
}

TEST(Features, EdgeFeaturesBitwiseMatchOpChain) {
  // build_edge_features now runs the fused radius_edge_features op; it
  // must stay bitwise equal to the op chain it replaced.
  FeatureConfig fc = small_config();
  Rng rng(101);
  std::vector<ad::Real> pv(16);
  for (auto& v : pv) v = rng.uniform(0.2, 0.8);
  ad::Tensor pos = ad::Tensor::from_vector(8, 2, std::move(pv));
  graph::Graph g = build_graph(fc, pos);
  ASSERT_GT(g.num_edges(), 0);
  ad::Tensor fused = build_edge_features(fc, pos, g);
  const double inv_r = 1.0 / fc.connectivity_radius;
  ad::Tensor xs = ad::gather_rows(pos, g.senders);
  ad::Tensor xr = ad::gather_rows(pos, g.receivers);
  ad::Tensor disp = ad::mul_scalar(ad::sub(xr, xs), inv_r);
  ad::Tensor dist = ad::sqrt_op(
      ad::add_scalar(ad::sum_cols(ad::square(disp)), 1e-12));
  ad::Tensor ref = ad::concat_cols({disp, dist});
  EXPECT_EQ(fused.vec(), ref.vec());
}

TEST(Features, GraphMatchesBruteForceIncludingEscapedParticles) {
  // build_graph indexes a grid fixed by the config domain (padded by one
  // cell); particles outside it clamp into the boundary cells. Edges must
  // still equal the brute-force radius graph element for element, for
  // build_graph and for one reused make_rollout_cells grid alike.
  FeatureConfig fc = small_config();
  fc.connectivity_radius = 0.15;
  Rng rng(103);
  graph::CellList cells = make_rollout_cells(fc, 0.0);
  for (int window = 0; window < 5; ++window) {
    std::vector<graph::Vec2> pts(40);
    // [-0.6, 1.6] spans well past the padded domain [-0.15, 1.15].
    for (auto& p : pts) p = {rng.uniform(-0.6, 1.6), rng.uniform(-0.6, 1.6)};
    pts.push_back({1e4, 1e4});
    if (window % 2 == 1) pts.push_back({1e4 + 0.1, 1e4});  // a far pair
    std::vector<ad::Real> pv;
    for (const auto& p : pts) {
      pv.push_back(p.x);
      pv.push_back(p.y);
    }
    const int n = static_cast<int>(pts.size());
    ad::Tensor pos = ad::Tensor::from_vector(n, 2, std::move(pv));
    const graph::Graph ref =
        graph::brute_force_radius_graph(pts, fc.connectivity_radius);
    const graph::Graph direct = build_graph(fc, pos);
    const graph::Graph reused = build_graph_cached(fc, pos, cells);
    for (const graph::Graph* g : {&direct, &reused}) {
      EXPECT_EQ(g->num_nodes, n);
      EXPECT_EQ(g->senders, ref.senders) << "window " << window;
      EXPECT_EQ(g->receivers, ref.receivers) << "window " << window;
    }
  }
}

TEST(Features, RolloutCellsRejectSkinAndMissingDomain) {
  FeatureConfig fc = small_config();
  EXPECT_THROW((void)make_rollout_cells(fc, 0.1), CheckError);
  fc.domain_hi = {1.0};  // fewer bounds than dims
  EXPECT_THROW((void)make_rollout_cells(fc, 0.0), CheckError);
  EXPECT_THROW((void)build_graph(fc, ad::Tensor::zeros(2, 2)), CheckError);
}

TEST(Features, NodeFeaturesDifferentiableThroughPositions) {
  FeatureConfig fc = small_config();
  Normalizer norm(unit_stats(2));
  Rng rng(3);
  std::vector<ad::Real> base(4);
  for (auto& v : base) v = rng.uniform(0.2, 0.8);
  auto result = ad::grad_check(
      [&](const std::vector<ad::Tensor>& in) {
        Window w{in[0], in[1], in[2]};
        return ad::mean(
            ad::square(build_node_features(fc, norm, w, SceneContext{})));
      },
      {ad::Tensor::from_vector(2, 2, base),
       ad::Tensor::from_vector(2, 2, {0.31, 0.42, 0.53, 0.64}),
       ad::Tensor::from_vector(2, 2, {0.33, 0.41, 0.55, 0.62})},
      1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

TEST(Features, EdgeFeaturesDifferentiableThroughPositions) {
  FeatureConfig fc = small_config();
  ad::Tensor pos =
      ad::Tensor::from_vector(3, 2, {0.1, 0.1, 0.3, 0.2, 0.25, 0.35});
  graph::Graph g = build_graph(fc, pos);  // fixed topology
  auto result = ad::grad_check(
      [&](const std::vector<ad::Tensor>& in) {
        return ad::mean(ad::square(build_edge_features(fc, in[0], g)));
      },
      {pos.clone()}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << "rel=" << result.max_rel_error;
}

TEST(Features, MaterialGradientFlows) {
  FeatureConfig fc = small_config();
  fc.material_feature = true;
  Normalizer norm(unit_stats(2));
  ad::Tensor material = ad::Tensor::scalar(0.5, /*requires_grad=*/true);
  SceneContext ctx;
  ctx.material = material;
  Window w = static_window(fc, {0.5, 0.5, 0.6, 0.6}, 2);
  ad::Tensor feats = build_node_features(fc, norm, w, ctx);
  ad::sum(feats).backward();
  ASSERT_FALSE(material.grad().empty());
  EXPECT_DOUBLE_EQ(material.grad()[0], 2.0);  // one column, two rows
}

}  // namespace
}  // namespace gns::core
