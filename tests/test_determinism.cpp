// Worker-count invariance: every parallel path gives the same bits serial
// and on the executor.
//
// Each case runs one computation twice: once with every parallel_for and
// parallel_jobs forced inline on the calling thread (a held
// exec::detail::ScopedParallelDepth, the same mechanism that serializes
// nested loops), and once on the global executor, which splits the work
// across GNS_EXEC_WORKERS workers plus the caller. The two results must be
// bitwise equal. CI runs this suite at GNS_EXEC_WORKERS = 1, 4 and 16.
//
// Why bitwise holds, per substrate:
//  - GNS / autograd: every parallel loop is row-local (matmul rows,
//    layer-norm rows, gather/activation elementwise, scatter_add backward
//    rows). The cross-row reductions — scatter_add forward and gather
//    backward — run either serially (GNS_SIMD=0) or as CSR-transpose
//    per-destination loops that accumulate contributions in ascending
//    original-index order, whichever worker owns a destination.
//  - MPM: p2g scatters into a fixed number of lanes (kP2gLanes), each
//    owning a fixed chunk range, and reduces them in ascending lane
//    order. The decomposition never depends on the worker count.
//  - CFD: every sweep writes disjoint rows; red-black SOR updates one
//    colour from the other.
//  - SR: predictions fill one slot per sample; the error sums are serial
//    in sample order.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "ad/ops.hpp"
#include "cfd/cfd.hpp"
#include "core/trainer.hpp"
#include "exec/parallel_for.hpp"
#include "mpm/scenes.hpp"
#include "mpm/solver.hpp"
#include "sr/genetic.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace gns {
namespace {

// ---------- GNS rollout ----------

io::Trajectory seed_trajectory(int particles, std::uint64_t seed) {
  io::Trajectory traj;
  traj.dim = 2;
  traj.num_particles = particles;
  traj.domain_lo = {0.0, 0.0};
  traj.domain_hi = {1.0, 1.0};
  traj.material_param = 0.5;
  Rng rng(seed);
  std::vector<double> base(static_cast<std::size_t>(particles) * 2);
  for (auto& v : base) v = rng.uniform(0.2, 0.8);
  for (int t = 0; t < 8; ++t) {
    std::vector<double> frame(base.size());
    for (std::size_t i = 0; i < base.size(); ++i)
      frame[i] = base[i] + 0.002 * t * static_cast<double>(i % 2);
    traj.add_frame(std::move(frame));
  }
  return traj;
}

std::vector<std::vector<double>> gns_rollout() {
  io::Dataset ds;
  ds.trajectories.push_back(seed_trajectory(12, 7));
  core::FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.35;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 1.0};
  fc.material_feature = true;
  core::GnsConfig gc;
  gc.latent = 16;
  gc.mlp_hidden = 16;
  gc.mlp_layers = 2;
  gc.message_passing_steps = 3;
  gc.attention = true;
  core::LearnedSimulator sim = core::make_simulator(ds, fc, gc, /*seed=*/3);
  const core::Window window =
      sim.window_from_trajectory(ds.trajectories[0]);
  const core::SceneContext ctx =
      core::SceneContext::from_trajectory(fc, ds.trajectories[0]);
  return sim.rollout(window, /*steps=*/10, ctx);
}

TEST(ThreadInvariance, GnsRolloutIsBitwiseIdentical) {
  std::vector<std::vector<double>> serial;
  {
    exec::detail::ScopedParallelDepth serial_only;
    serial = gns_rollout();
  }
  const auto parallel = gns_rollout();
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    ASSERT_EQ(serial[t].size(), parallel[t].size());
    for (std::size_t k = 0; k < serial[t].size(); ++k)
      EXPECT_EQ(serial[t][k], parallel[t][k])
          << "frame " << t << " component " << k
          << " differs between serial and executor runs";
  }
}

// ---------- Autograd graph ops ----------

TEST(ThreadInvariance, ScatterAddForwardAndBackwardBitwise) {
  // Large enough to clear the ops' parallel thresholds.
  const int e = 40000, m = 4, nodes = 512;
  Rng rng(13);
  std::vector<ad::Real> vals(static_cast<std::size_t>(e) * m);
  for (auto& v : vals) v = rng.uniform(-1.0, 1.0);
  std::vector<int> index(e);
  for (auto& i : index) i = static_cast<int>(rng.uniform_index(nodes));

  auto run = [&] {
    ad::Tensor a = ad::Tensor::from_vector(e, m, vals, true);
    ad::Tensor out = ad::scatter_add_rows(a, index, nodes);
    ad::Tensor loss = ad::sum(ad::square(out));
    loss.backward();
    return std::pair{out.vec(), a.grad()};
  };
  std::vector<ad::Real> out_serial, grad_serial;
  {
    exec::detail::ScopedParallelDepth serial_only;
    std::tie(out_serial, grad_serial) = run();
  }
  const auto [out_parallel, grad_parallel] = run();
  ASSERT_EQ(out_serial.size(), out_parallel.size());
  for (std::size_t i = 0; i < out_serial.size(); ++i)
    EXPECT_EQ(out_serial[i], out_parallel[i]);
  ASSERT_EQ(grad_serial.size(), grad_parallel.size());
  for (std::size_t i = 0; i < grad_serial.size(); ++i)
    EXPECT_EQ(grad_serial[i], grad_parallel[i]);
}

TEST(ThreadInvariance, GatherBackwardCsrBitwise) {
  // The GNS_SIMD=1 gather backward parallelizes over destination rows via
  // the CSR transpose; a duplicate-heavy index makes the per-destination
  // accumulation order matter.
  simd::set_enabled(true);
  const int e = 40000, m = 4, nodes = 512;
  Rng rng(17);
  std::vector<ad::Real> vals(static_cast<std::size_t>(nodes) * m);
  for (auto& v : vals) v = rng.uniform(-1.0, 1.0);
  std::vector<int> index(e);
  // Half the gathers hit node 7 — one very hot destination.
  for (std::size_t i = 0; i < index.size(); ++i)
    index[i] = (i % 2 == 0) ? 7 : static_cast<int>(rng.uniform_index(nodes));

  auto run = [&] {
    ad::Tensor a = ad::Tensor::from_vector(nodes, m, vals, true);
    ad::Tensor out = ad::gather_rows(a, index);
    ad::Tensor loss = ad::sum(ad::square(out));
    loss.backward();
    return a.grad();
  };
  std::vector<ad::Real> serial;
  {
    exec::detail::ScopedParallelDepth serial_only;
    serial = run();
  }
  const auto parallel = run();
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]);
}

// ---------- MPM ----------

mpm::MpmSolver column_solver() {
  mpm::GranularSceneParams params;
  params.cells_x = 20;
  params.cells_y = 10;
  params.domain_width = 1.0;
  params.domain_height = 0.5;
  params.material.friction_deg = 30.0;
  return mpm::make_column_collapse(params, 0.15, 1.5).make_solver();
}

std::vector<mpm::Vec2d> mpm_positions(int steps) {
  mpm::MpmSolver solver = column_solver();
  solver.run(steps);
  return solver.particles().position;
}

void expect_same_positions(const std::vector<mpm::Vec2d>& a,
                           const std::vector<mpm::Vec2d>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << "particle " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "particle " << i;
  }
}

TEST(ThreadInvariance, MpmExecutorRerunIsBitwise) {
  expect_same_positions(mpm_positions(50), mpm_positions(50));
}

TEST(ThreadInvariance, MpmSerialVsExecutorBitwise) {
  std::vector<mpm::Vec2d> serial;
  {
    exec::detail::ScopedParallelDepth serial_only;
    serial = mpm_positions(50);
  }
  expect_same_positions(serial, mpm_positions(50));
}

TEST(ThreadInvariance, MpmSimdOnOffBitwise) {
  // GNS_SIMD only swaps the batched-weights kernel and the reduction's
  // accumulate implementation for bitwise-identical twins; the MPM step
  // must therefore produce identical bits with the toggle on and off.
  simd::set_enabled(false);
  const auto off = mpm_positions(50);
  simd::set_enabled(true);
  expect_same_positions(off, mpm_positions(50));
}

// ---------- CFD ----------

TEST(ThreadInvariance, CfdStepsSerialVsExecutorBitwise) {
  cfd::CfdConfig cfg;
  cfg.nx = 48;
  cfg.ny = 24;
  cfg.pressure_iters = 40;
  auto run = [&cfg] {
    cfd::CfdSolver solver(cfg);
    for (int i = 0; i < 4; ++i) solver.step();
    return std::vector<std::vector<double>>{solver.u(), solver.v(),
                                            solver.pressure()};
  };
  std::vector<std::vector<double>> serial;
  {
    exec::detail::ScopedParallelDepth serial_only;
    serial = run();
  }
  const auto parallel = run();
  EXPECT_EQ(serial[0], parallel[0]) << "u";
  EXPECT_EQ(serial[1], parallel[1]) << "v";
  EXPECT_EQ(serial[2], parallel[2]) << "pressure";
}

// ---------- Symbolic regression ----------

TEST(ThreadInvariance, SrEvaluateEqualsSerialIndexOrderSum) {
  // Above evaluate()'s 4096-sample parallel threshold, with magnitudes
  // spread over several decades so a regrouped sum would change bits.
  constexpr int kSamples = 20000;
  sr::SrProblem problem;
  problem.var_names = {"a", "b"};
  Rng rng(23);
  for (int i = 0; i < kSamples; ++i) {
    const double a = rng.uniform(-3.0, 3.0) * std::pow(10.0, i % 7 - 3);
    const double b = rng.uniform(0.5, 2.0);
    problem.X.push_back({a, b});
    problem.y.push_back(std::sin(a) * b + 0.1 * rng.uniform(-1.0, 1.0));
  }
  const sr::ExprPtr expr = sr::Expr::binary(
      sr::Op::Mul,
      sr::Expr::binary(sr::Op::Add, sr::Expr::variable(0),
                       sr::Expr::constant(0.25)),
      sr::Expr::variable(1));

  double abs_sum = 0.0, sq_sum = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double d = expr->eval(problem.X[i]) - problem.y[i];
    abs_sum += std::abs(d);
    sq_sum += d * d;
  }

  sr::FitnessResult serial;
  {
    exec::detail::ScopedParallelDepth serial_only;
    serial = sr::evaluate(*expr, problem);
  }
  const sr::FitnessResult parallel = sr::evaluate(*expr, problem);
  ASSERT_TRUE(parallel.valid);
  EXPECT_EQ(parallel.mae, abs_sum / kSamples);
  EXPECT_EQ(parallel.mse, sq_sum / kSamples);
  EXPECT_EQ(serial.mae, parallel.mae);
  EXPECT_EQ(serial.mse, parallel.mse);
}

}  // namespace
}  // namespace gns
