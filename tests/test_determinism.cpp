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
//    backward — run as CSR-transpose per-destination loops that
//    accumulate contributions in ascending original-index order,
//    whichever worker owns a destination (GNS_SIMD picks only the scalar
//    or AVX2 accumulate inside them). The
//    untaped GNS forward's edge kernel is row-local too, and its node
//    kernel sums each receiver's edges in that same CSR order; it is also
//    checked against the taped op chain, bitwise.
//  - MPM: p2g scatters into a fixed number of lanes (kP2gLanes), each
//    owning a fixed chunk range; one pass over 64-node blocks sums each
//    node's lanes in ascending lane order and then updates that node's
//    velocity and boundary; g2p and its batched stress update are
//    per-particle. The decomposition never depends on the worker count,
//    and runs the same serially below the step's particle threshold.
//  - CFD: every sweep writes disjoint rows; red-black SOR updates one
//    colour from the other.
//  - SR: predictions fill one slot per sample; the error sums are serial
//    in sample order.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "ad/ops.hpp"
#include "cfd/cfd.hpp"
#include "core/trainer.hpp"
#include "exec/parallel_for.hpp"
#include "graph/batch.hpp"
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

// ---------- Untaped GNS forward vs the taped op chain ----------

/// Random graph over n nodes with edges in random order: the last 5 nodes
/// have no edges, and every third edge goes to node 0, a hot receiver
/// whose incoming edges are scattered through the whole edge list.
graph::Graph random_graph(int n, std::uint64_t seed) {
  Rng rng(seed);
  graph::Graph g;
  g.num_nodes = n;
  const auto active = static_cast<std::uint64_t>(n - 5);
  for (int e = 0; e < 5 * (n - 5); ++e) {
    const int sender = static_cast<int>(rng.uniform_index(active));
    const int receiver =
        e % 3 == 0 ? 0 : static_cast<int>(rng.uniform_index(active));
    g.add_edge(sender, receiver);
  }
  return g;
}

ad::Tensor random_tensor(int rows, int cols, Rng& rng) {
  std::vector<ad::Real> v(static_cast<std::size_t>(rows) * cols);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return ad::Tensor::from_vector(rows, cols, std::move(v));
}

void expect_bitwise(const ad::Tensor& want, const ad::Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  std::size_t mismatches = 0, first = 0;
  for (std::size_t i = 0; i < want.vec().size(); ++i) {
    if (std::bit_cast<std::uint64_t>(want.vec()[i]) !=
        std::bit_cast<std::uint64_t>(got.vec()[i])) {
      if (mismatches++ == 0) first = i;
    }
  }
  EXPECT_EQ(mismatches, 0u) << what << ": first difference at element "
                            << first << " (" << want.vec()[first] << " vs "
                            << got.vec()[first] << ")";
}

TEST(ThreadInvariance, UntapedGnsForwardMatchesTapedOpChain) {
  // GnsModel::forward with grad mode off runs each processor round as an
  // edge kernel and a node kernel; with grad mode on (the model's
  // parameters require grad) it runs the op chain. Both must give the
  // same acceleration and messages bits, serial and on the executor, with
  // the SIMD graph kernels off (the chain's serial scatter) and on.
  struct Case {
    int latent;
    int hidden;
    int mlp_layers;
    bool attention;
  };
  // Latent 18 and hidden 21 leave column tails past the AVX2 blocks.
  const Case cases[] = {{32, 32, 2, false}, {32, 32, 2, true},
                        {18, 21, 2, false}, {18, 21, 2, true},
                        {18, 21, 0, false}, {18, 21, 0, true},
                        {32, 32, 3, false}, {32, 32, 3, true}};
  const graph::Graph single = random_graph(150, 31);
  const graph::GraphBatch batch = graph::batch_graphs(std::vector<graph::Graph>{
      random_graph(40, 32), random_graph(90, 33), random_graph(25, 34)});
  for (const bool simd_on : {false, true}) {
    simd::set_enabled(simd_on);
    for (const Case& c : cases) {
      core::GnsConfig gc;
      gc.node_in = 5;
      gc.edge_in = 3;
      gc.latent = c.latent;
      gc.mlp_hidden = c.hidden;
      gc.mlp_layers = c.mlp_layers;
      gc.message_passing_steps = 3;
      gc.attention = c.attention;
      Rng rng(41);
      const core::GnsModel model(gc, rng);
      for (const graph::Graph* g : {&single, &batch.merged}) {
        Rng data_rng(43);
        const ad::Tensor nodes =
            random_tensor(g->num_nodes, gc.node_in, data_rng);
        const ad::Tensor edges =
            random_tensor(g->num_edges(), gc.edge_in, data_rng);
        const core::GraphIndex index(*g);
        const core::GnsOutput taped = model.forward(nodes, edges, *g, index);
        ASSERT_TRUE(taped.acceleration.requires_grad());
        core::GnsOutput serial, parallel;
        {
          ad::NoGradGuard no_grad;
          {
            exec::detail::ScopedParallelDepth serial_only;
            serial = model.forward(nodes, edges, *g, index);
          }
          parallel = model.forward(nodes, edges, *g, index);
        }
        ASSERT_FALSE(parallel.acceleration.requires_grad());
        const std::string what =
            "latent " + std::to_string(c.latent) + ", mlp_layers " +
            std::to_string(c.mlp_layers) +
            (c.attention ? ", attention" : "") +
            (g == &single ? ", single graph" : ", batch") +
            (simd_on ? ", simd on" : ", simd off");
        expect_bitwise(taped.acceleration, serial.acceleration,
                       what + ": acceleration, serial");
        expect_bitwise(taped.messages, serial.messages,
                       what + ": messages, serial");
        expect_bitwise(taped.acceleration, parallel.acceleration,
                       what + ": acceleration, executor");
        expect_bitwise(taped.messages, parallel.messages,
                       what + ": messages, executor");
      }
    }
  }
  simd::set_enabled(true);

  // Zero edges: the op chain's gather_rows rejects the empty index, and
  // the untaped round raises the same CheckError.
  core::GnsConfig gc;
  gc.node_in = 5;
  gc.edge_in = 3;
  gc.latent = 8;
  gc.mlp_hidden = 8;
  Rng rng(47);
  const core::GnsModel model(gc, rng);
  graph::Graph no_edges;
  no_edges.num_nodes = 6;
  const ad::Tensor nodes = random_tensor(6, gc.node_in, rng);
  const ad::Tensor edges = ad::make_op_result(0, gc.edge_in, {}, {});
  EXPECT_THROW((void)model.forward(nodes, edges, no_edges), CheckError);
  ad::NoGradGuard no_grad;
  EXPECT_THROW((void)model.forward(nodes, edges, no_edges), CheckError);
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
  // The gather backward parallelizes over destination rows via the CSR
  // transpose; a duplicate-heavy index makes the per-destination
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

/// A column collapse at `scale` times the 20 x 10-cell grid: 54 particles
/// at scale 1, which the step runs serially, and 1,350 at scale 5, above
/// its particle threshold, which it runs on the executor.
mpm::MpmSolver column_solver(int scale) {
  mpm::GranularSceneParams params;
  params.cells_x = 20 * scale;
  params.cells_y = 10 * scale;
  params.domain_width = 1.0;
  params.domain_height = 0.5;
  params.material.friction_deg = 30.0;
  return mpm::make_column_collapse(params, 0.15, 1.5).make_solver();
}

/// Particle state after `steps` steps, one entry per column scale.
std::vector<mpm::Particles> mpm_states(int steps) {
  std::vector<mpm::Particles> out;
  for (const int scale : {1, 5}) {
    mpm::MpmSolver solver = column_solver(scale);
    solver.run(steps);
    out.push_back(solver.particles());
  }
  return out;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

void expect_same_states(const std::vector<mpm::Particles>& a,
                        const std::vector<mpm::Particles>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_TRUE(same_bytes(a[s].position, b[s].position)) << "scene " << s;
    EXPECT_TRUE(same_bytes(a[s].velocity, b[s].velocity)) << "scene " << s;
    EXPECT_TRUE(same_bytes(a[s].stress, b[s].stress)) << "scene " << s;
    EXPECT_TRUE(same_bytes(a[s].volume, b[s].volume)) << "scene " << s;
  }
}

TEST(ThreadInvariance, MpmExecutorRerunIsBitwise) {
  expect_same_states(mpm_states(50), mpm_states(50));
}

TEST(ThreadInvariance, MpmSerialVsExecutorBitwise) {
  ASSERT_GE(column_solver(5).particles().size(), 1024)
      << "the large column must run on the executor";
  std::vector<mpm::Particles> serial;
  {
    exec::detail::ScopedParallelDepth serial_only;
    serial = mpm_states(50);
  }
  expect_same_states(serial, mpm_states(50));
}

TEST(ThreadInvariance, MpmSimdOnOffBitwise) {
  // GNS_SIMD only swaps leaf kernels (batched weights, the P2G record
  // scatter, the grid pass's lane sums, the Drucker–Prager batch) for
  // bitwise-identical twins; the MPM step must therefore produce
  // identical bits with the toggle on and off.
  simd::set_enabled(false);
  const auto off = mpm_states(50);
  simd::set_enabled(true);
  expect_same_states(off, mpm_states(50));
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
