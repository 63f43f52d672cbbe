// MeshNet: mesh construction from the CFD domain, node typing, prediction
// shapes, boundary enforcement, and one-step learning on a tiny flow.

#include <gtest/gtest.h>

#include "core/meshnet.hpp"

namespace gns::core {
namespace {

cfd::CfdConfig tiny_cfd() {
  cfd::CfdConfig cfg;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.length = 2.0;
  cfg.pressure_iters = 60;
  return cfg;
}

TEST(Mesh, EdgeCountIs4Neighborhood) {
  cfd::CfdSolver solver(tiny_cfd());
  Mesh mesh = build_mesh(solver);
  const int nx = 16, ny = 8;
  EXPECT_EQ(mesh.graph.num_nodes, nx * ny);
  EXPECT_EQ(mesh.graph.num_edges(),
            2 * ((nx - 1) * ny + nx * (ny - 1)));
  EXPECT_EQ(mesh.edge_features.rows(), mesh.graph.num_edges());
  EXPECT_EQ(mesh.edge_features.cols(), 3);
}

TEST(Mesh, EdgeFeaturesAreUnitOffsets) {
  cfd::CfdSolver solver(tiny_cfd());
  Mesh mesh = build_mesh(solver);
  for (int e = 0; e < mesh.graph.num_edges(); ++e) {
    const double dx = mesh.edge_features.at(e, 0);
    const double dy = mesh.edge_features.at(e, 1);
    const double dist = mesh.edge_features.at(e, 2);
    EXPECT_NEAR(std::abs(dx) + std::abs(dy), 1.0, 1e-12);
    EXPECT_NEAR(dist, 1.0, 1e-12);
  }
}

TEST(Mesh, OneHotMatchesTypes) {
  cfd::CfdSolver solver(tiny_cfd());
  Mesh mesh = build_mesh(solver);
  for (int c = 0; c < mesh.graph.num_nodes; ++c) {
    double row_sum = 0.0;
    for (int k = 0; k < 4; ++k) row_sum += mesh.node_type_onehot.at(c, k);
    EXPECT_DOUBLE_EQ(row_sum, 1.0);
    EXPECT_DOUBLE_EQ(
        mesh.node_type_onehot.at(c, static_cast<int>(mesh.types[c])), 1.0);
  }
}

TEST(MeshNet, PredictShapes) {
  cfd::CfdSolver solver(tiny_cfd());
  Mesh mesh = build_mesh(solver);
  MeshNet net(mesh, MeshNetConfig{16, 16, 1, 2}, 1.0);
  ad::Tensor v = ad::Tensor::zeros(mesh.graph.num_nodes, 2);
  ad::Tensor dv = net.predict_delta(v);
  EXPECT_EQ(dv.rows(), mesh.graph.num_nodes);
  EXPECT_EQ(dv.cols(), 2);
}

TEST(MeshNet, StepKeepsSolidCellsAtRest) {
  cfd::CfdSolver solver(tiny_cfd());
  Mesh mesh = build_mesh(solver);
  MeshNet net(mesh, MeshNetConfig{8, 8, 1, 1}, 1.0);
  std::vector<double> state(2 * mesh.graph.num_nodes, 0.5);
  const auto next = net.step(state);
  for (int c = 0; c < mesh.graph.num_nodes; ++c) {
    if (mesh.types[c] == cfd::CellType::Solid) {
      EXPECT_DOUBLE_EQ(next[2 * c], 0.0);
      EXPECT_DOUBLE_EQ(next[2 * c + 1], 0.0);
    }
  }
}

TEST(MeshNet, RolloutProducesRequestedFrames) {
  cfd::CfdSolver solver(tiny_cfd());
  Mesh mesh = build_mesh(solver);
  MeshNet net(mesh, MeshNetConfig{8, 8, 1, 1}, 1.0);
  std::vector<double> state(2 * mesh.graph.num_nodes, 0.1);
  const auto frames = net.rollout(state, 3);
  EXPECT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].size(), state.size());
}

TEST(MeshNet, TrainingReducesLossOnRealFlow) {
  cfd::CfdSolver solver(tiny_cfd());
  for (int i = 0; i < 30; ++i) solver.step();
  cfd::CfdRollout roll = cfd::run_rollout(solver, 12, 2);
  Mesh mesh = build_mesh(solver);
  MeshNet net(mesh, MeshNetConfig{16, 16, 1, 2}, /*velocity_std=*/1.0);
  MeshNetTrainConfig tc;
  tc.steps = 60;
  tc.lr = 3e-3;
  const auto losses = train_meshnet(net, roll.velocity_frames, tc);
  ASSERT_EQ(losses.size(), 60u);
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 5; ++i) early += losses[i];
  for (int i = 55; i < 60; ++i) late += losses[i];
  EXPECT_LT(late, early);
}

TEST(MeshNet, FieldRmse) {
  EXPECT_DOUBLE_EQ(field_rmse({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_NEAR(field_rmse({0, 0}, {3, 4}), std::sqrt(12.5), 1e-12);
  EXPECT_THROW((void)field_rmse({1}, {1, 2}), CheckError);
}

TEST(MeshNet, RejectsMismatchedFrameSizes) {
  cfd::CfdSolver solver(tiny_cfd());
  Mesh mesh = build_mesh(solver);
  MeshNet net(mesh, MeshNetConfig{8, 8, 1, 1}, 1.0);
  std::vector<std::vector<double>> bad = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_THROW(train_meshnet(net, bad, MeshNetTrainConfig{}), CheckError);
}

}  // namespace
}  // namespace gns::core
