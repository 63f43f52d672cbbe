// Micro-kernel benchmarks (google-benchmark): the per-step building
// blocks whose throughput determines every experiment's wall time —
// MPM step, radius-graph construction, GNS forward/backward, autograd
// GEMM, SR expression evaluation.
//
// `--kernels` instead runs the hand-timed SIMD kernel suite: each
// GNS_SIMD-dispatched kernel (gather/scatter, layer_norm, concat,
// fused edge features, MPM steps, the P2G scatter and the Drucker–Prager
// batch) timed scalar vs SIMD, and the MLP rows
// timed through every linear_act_rows leaf the CPU runs (scalar, AVX2,
// AVX-512F), each with a bitwise cross-check against the scalar
// reference, written to BENCH_kernels.json for the CI artifact.

#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>

#include "ad/nn.hpp"
#include "ad/optim.hpp"
#include "bench_common.hpp"
#include "core/datagen.hpp"
#include "core/trainer.hpp"
#include "graph/neighbor_search.hpp"
#include "mpm/p2g.hpp"
#include "mpm/scenes.hpp"
#include "sr/genetic.hpp"
#include "util/simd.hpp"

namespace {

using namespace gns;

// ---- MPM -------------------------------------------------------------------

void BM_MpmStep(benchmark::State& state) {
  mpm::GranularSceneParams params;
  params.cells_x = static_cast<int>(state.range(0));
  params.cells_y = params.cells_x / 2;
  params.domain_width = 1.0;
  params.domain_height = 0.5;
  mpm::Scene scene = mpm::make_column_collapse(params, 0.2, 1.5);
  mpm::MpmSolver solver = scene.make_solver();
  for (auto _ : state) {
    solver.step();
    benchmark::DoNotOptimize(solver.particles().position.data());
  }
  state.counters["particles"] =
      static_cast<double>(solver.particles().size());
  state.counters["particle_steps/s"] = benchmark::Counter(
      static_cast<double>(solver.particles().size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MpmStep)->Arg(16)->Arg(32)->Arg(64);

// ---- Neighbor search ---------------------------------------------------------

void BM_RadiusGraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<graph::Vec2> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform(0.0, 1.0);
    p.y = rng.uniform(0.0, 0.5);
  }
  for (auto _ : state) {
    // A fresh grid over the Fig-3 domain per build, as core::build_graph
    // makes one per step.
    graph::CellList cells(0.04, {0.0, 0.0}, {1.0, 0.5});
    cells.build(pts);
    graph::Graph g = cells.radius_graph(pts);
    benchmark::DoNotOptimize(g.senders.data());
  }
  state.counters["particles/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RadiusGraph)->Arg(200)->Arg(1000)->Arg(5000);

// ---- Autograd GEMM -----------------------------------------------------------

void BM_MatmulForwardBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<ad::Real> av(n * 64), bv(64 * 64);
  for (auto& v : av) v = rng.uniform(-1, 1);
  for (auto& v : bv) v = rng.uniform(-1, 1);
  ad::Tensor a = ad::Tensor::from_vector(n, 64, av);
  ad::Tensor b = ad::Tensor::from_vector(64, 64, bv, true);
  for (auto _ : state) {
    ad::Tensor loss = ad::sum(ad::matmul(a, b));
    b.zero_grad();
    loss.backward();
    benchmark::DoNotOptimize(b.grad().data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      3.0 * 2.0 * n * 64 * 64 * 1e-9 *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MatmulForwardBackward)->Arg(512)->Arg(4096);

// ---- GNS forward / training step ----------------------------------------------

struct GnsFixtureData {
  io::Dataset ds;
  std::unique_ptr<core::LearnedSimulator> sim;
  core::Window window;

  explicit GnsFixtureData(int particles_scale) {
    mpm::GranularSceneParams params;
    params.cells_x = 32;
    params.cells_y = 16;
    params.domain_width = 1.0;
    params.domain_height = 0.5;
    params.particles_per_cell_dim = particles_scale;
    ds = core::generate_column_dataset(params, {30.0}, 0.15, 2.0, 10, 10);
    core::FeatureConfig fc;
    fc.dim = 2;
    fc.history = 5;
    fc.connectivity_radius = 0.04;
    fc.domain_lo = {0.0, 0.0};
    fc.domain_hi = {1.0, 0.5};
    core::GnsConfig gc;
    gc.latent = 32;
    gc.mlp_hidden = 32;
    gc.mlp_layers = 2;
    gc.message_passing_steps = 3;
    sim = std::make_unique<core::LearnedSimulator>(
        core::make_simulator(ds, fc, gc));
    window = sim->window_from_trajectory(ds.trajectories[0]);
  }
};

void BM_GnsForward(benchmark::State& state) {
  GnsFixtureData fix(static_cast<int>(state.range(0)));
  ad::NoGradGuard no_grad;
  for (auto _ : state) {
    ad::Tensor accel =
        fix.sim->predict_acceleration(fix.window, core::SceneContext{});
    benchmark::DoNotOptimize(accel.data());
  }
  state.counters["particles"] =
      static_cast<double>(fix.ds.trajectories[0].num_particles);
}
BENCHMARK(BM_GnsForward)->Arg(1)->Arg(2)->Arg(3);

void BM_GnsTrainStep(benchmark::State& state) {
  GnsFixtureData fix(2);
  ad::Adam opt(fix.sim->model().parameters(), 1e-4);
  for (auto _ : state) {
    ad::Tensor accel =
        fix.sim->predict_acceleration(fix.window, core::SceneContext{});
    ad::Tensor loss = ad::mean(ad::square(accel));
    opt.zero_grad();
    loss.backward();
    opt.step();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_GnsTrainStep);

// ---- SR expression evaluation --------------------------------------------------

void BM_SrEvaluate(benchmark::State& state) {
  sr::SrProblem problem;
  problem.var_names = {"x", "y"};
  problem.var_dims = {sr::Dim{{0, 0}}, sr::Dim{{0, 0}}};
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-2, 2), y = rng.uniform(-2, 2);
    problem.X.push_back({x, y});
    problem.y.push_back(std::abs(x - y) * 3.0);
  }
  sr::ExprPtr e = sr::Expr::binary(
      sr::Op::Mul,
      sr::Expr::unary(sr::Op::Abs,
                      sr::Expr::binary(sr::Op::Sub, sr::Expr::variable(0),
                                       sr::Expr::variable(1))),
      sr::Expr::constant(3.0));
  for (auto _ : state) {
    const sr::FitnessResult fit = sr::evaluate(*e, problem);
    benchmark::DoNotOptimize(fit.mae);
  }
  state.counters["samples/s"] = benchmark::Counter(
      5000.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SrEvaluate);

// ---- SIMD kernel suite (--kernels) ---------------------------------------------

/// One GNS_SIMD-dispatched kernel, timed scalar vs SIMD. `run` must be a
/// pure function of its fixture state (same bits every call) so the
/// bitwise cross-check is meaningful.
struct KernelCase {
  std::string name;
  std::function<std::vector<ad::Real>()> run;
};

/// Best-of-reps wall time of `f` in milliseconds.
template <typename F>
double time_ms(F&& f, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    f();
    best = std::min(best, t.seconds() * 1e3);
  }
  return best;
}

/// Appends the bytes of `v`, a vector of structs of doubles, to `out`.
template <typename T>
void append_bytes(std::vector<ad::Real>& out, const std::vector<T>& v) {
  static_assert(sizeof(T) % sizeof(ad::Real) == 0);
  const std::size_t at = out.size();
  out.resize(at + v.size() * sizeof(T) / sizeof(ad::Real));
  std::memcpy(out.data() + at, v.data(), v.size() * sizeof(T));
}

/// Same bytes, so -0.0 differs from +0.0 and a NaN equals itself.
bool same_bits(const std::vector<ad::Real>& a,
               const std::vector<ad::Real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(ad::Real)) == 0;
}

/// The edge MLP of a Fig-3 processor round (96 → 32 → 32 → 32, ReLU
/// hidden layers, then the LayerNorm) over 3,072 ReLU-sparse rows (about
/// half the inputs zero), one thread, a tile of kRowTile rows at a time
/// through every layer as Mlp::forward_rows runs it, through one leaf.
struct MlpRowsCase {
  static constexpr int kRows = 3072;
  static constexpr int kIn = 96;
  static constexpr int kWidth = 32;
  std::vector<ad::Real> x, w[3], b[3], gamma, beta;

  explicit MlpRowsCase(Rng& rng) {
    auto fill = [&rng](std::vector<ad::Real>& v, std::size_t n) {
      v.resize(n);
      for (auto& e : v) e = rng.uniform(-1.0, 1.0);
    };
    fill(x, static_cast<std::size_t>(kRows) * kIn);
    for (auto& e : x) e = e > 0 ? e : 0.0;
    fill(w[0], static_cast<std::size_t>(kIn) * kWidth);
    fill(w[1], static_cast<std::size_t>(kWidth) * kWidth);
    fill(w[2], static_cast<std::size_t>(kWidth) * kWidth);
    for (auto& bias : b) fill(bias, kWidth);
    fill(gamma, kWidth);
    fill(beta, kWidth);
  }

  std::vector<ad::Real> run(ad::RowsLeaf leaf) const {
    using ad::FusedAct;
    std::vector<ad::Real> out(static_cast<std::size_t>(kRows) * kWidth);
    ad::Real h0[ad::kRowTile * kWidth], h1[ad::kRowTile * kWidth];
    for (int r0 = 0; r0 < kRows; r0 += ad::kRowTile) {
      const int rows = std::min(ad::kRowTile, kRows - r0);
      ad::Real* y = out.data() + static_cast<std::size_t>(r0) * kWidth;
      const ad::Real* in = x.data() + static_cast<std::size_t>(r0) * kIn;
      ad::linear_act_rows_with(leaf, in, kIn, w[0].data(), b[0].data(), h0,
                               kWidth, rows, kIn, kWidth, FusedAct::ReLU);
      ad::linear_act_rows_with(leaf, h0, kWidth, w[1].data(), b[1].data(),
                               h1, kWidth, rows, kWidth, kWidth,
                               FusedAct::ReLU);
      ad::linear_act_rows_with(leaf, h1, kWidth, w[2].data(), b[2].data(), y,
                               kWidth, rows, kWidth, kWidth,
                               FusedAct::Identity);
      for (int r = 0; r < rows; ++r)
        ad::layer_norm_row(y + r * kWidth, gamma.data(), beta.data(), 1e-5,
                           y + r * kWidth, kWidth);
    }
    return out;
  }
};

int run_kernel_suite() {
  using namespace gns::bench;
  print_header("SIMD kernel suite: scalar vs every SIMD leaf",
               "vectorization changes cost, not bits");
  std::printf("avx2: %s, avx512f: %s\n", simd::cpu_has_avx2() ? "yes" : "no",
              simd::cpu_has_avx512f() ? "yes" : "no");

  constexpr int kNodes = 4000;
  constexpr int kEdges = 40000;
  constexpr int kCols = 128;
  constexpr int kReps = 5;

  Rng rng(11);
  std::vector<int> senders(kEdges), receivers(kEdges);
  for (int e = 0; e < kEdges; ++e) {
    senders[e] = static_cast<int>(rng.uniform_index(kNodes));
    receivers[e] = static_cast<int>(rng.uniform_index(kNodes));
  }
  const ad::IndexMap smap(senders, kNodes);
  const ad::IndexMap rmap(receivers, kNodes);

  auto random_tensor = [&](int rows, int cols, bool rg = false) {
    std::vector<ad::Real> v(static_cast<std::size_t>(rows) * cols);
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    return ad::Tensor::from_vector(rows, cols, std::move(v), rg);
  };
  const ad::Tensor nodes = random_tensor(kNodes, kCols);
  const ad::Tensor edges = random_tensor(kEdges, kCols);
  const ad::Tensor gamma = random_tensor(1, kCols);
  const ad::Tensor beta = random_tensor(1, kCols);
  const ad::Tensor positions = random_tensor(kNodes, 2);

  std::vector<KernelCase> cases;
  cases.push_back({"gather_fwd", [&] {
                     ad::NoGradGuard ng;
                     return ad::gather_rows(nodes, smap).vec();
                   }});
  cases.push_back({"gather_bwd", [&] {
                     ad::Tensor a = ad::Tensor::from_vector(
                         kNodes, kCols, nodes.vec(), /*requires_grad=*/true);
                     ad::Tensor loss = ad::sum(ad::gather_rows(a, smap));
                     loss.backward();
                     return a.grad();
                   }});
  cases.push_back({"scatter_add_fwd", [&] {
                     ad::NoGradGuard ng;
                     return ad::scatter_add_rows(edges, rmap).vec();
                   }});
  cases.push_back({"layer_norm_fwd", [&] {
                     ad::NoGradGuard ng;
                     return ad::layer_norm(edges, gamma, beta).vec();
                   }});
  cases.push_back({"concat_cols_fwd", [&] {
                     ad::NoGradGuard ng;
                     return ad::concat_cols({edges, edges, edges}).vec();
                   }});
  cases.push_back({"radius_edge_features", [&] {
                     ad::NoGradGuard ng;
                     return ad::radius_edge_features(positions, smap, rmap,
                                                     25.0)
                         .vec();
                   }});
  cases.push_back({"mpm_steps", [&] {
                     mpm::GranularSceneParams params;
                     params.cells_x = 32;
                     params.cells_y = 16;
                     params.domain_width = 1.0;
                     params.domain_height = 0.5;
                     mpm::Scene scene =
                         mpm::make_column_collapse(params, 0.2, 1.5);
                     mpm::MpmSolver solver = scene.make_solver();
                     solver.run(20);
                     // The full particle state, as raw doubles.
                     const mpm::Particles& p = solver.particles();
                     std::vector<ad::Real> out;
                     append_bytes(out, p.position);
                     append_bytes(out, p.velocity);
                     append_bytes(out, p.stress);
                     append_bytes(out, p.volume);
                     return out;
                   }});

  // The MPM leaves on the state of a collapsing column at 4x the Fig-3
  // grid (5,202 particles, 100 steps in): every chunk's P2G scatter into
  // one lane, and the Drucker–Prager batch over the particles' stresses
  // with random strain increments of the size a step applies.
  mpm::GranularSceneParams column_params;
  column_params.cells_x = 128;
  column_params.cells_y = 64;
  column_params.domain_width = 1.0;
  column_params.domain_height = 0.5;
  const mpm::Scene column = mpm::make_column_collapse(column_params, 0.2, 2.0);
  mpm::MpmSolver column_solver = column.make_solver();
  column_solver.run(100);
  const mpm::Particles& column_state = column_solver.particles();
  const int column_np = column_state.size();
  mpm::P2gLane lane(column_solver.grid().num_nodes());
  mpm::P2gGrid p2g_grid;
  p2g_grid.nodes_x = column_solver.grid().nodes_x();
  p2g_grid.nodes_y = column_solver.grid().nodes_y();
  p2g_grid.spacing = column_solver.grid().spacing();
  p2g_grid.gravity = column_solver.config().gravity;
  cases.push_back({"mpm_p2g", [&] {
                     ++p2g_grid.epoch;  // zero each block on first touch
                     for (int c0 = 0; c0 < column_np; c0 += mpm::kShapeBatch)
                       mpm::p2g_scatter(
                           column_state, c0,
                           std::min(mpm::kShapeBatch, column_np - c0),
                           p2g_grid, lane);
                     std::vector<ad::Real> out(lane.mass);
                     out.insert(out.end(), lane.rec.begin(), lane.rec.end());
                     return out;
                   }});
  std::vector<mpm::StressState> stress_states;
  for (int i = 0; i < column_np; ++i)
    stress_states.push_back(
        {column_state.stress[i],
         {rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4),
          rng.uniform(-1e-4, 1e-4), 0.0},
         1e-4,
         column_state.mass[i] / column_state.volume[i]});
  cases.push_back({"mpm_stress", [&] {
                     std::vector<mpm::SymTensor2> out(column_np);
                     for (int c0 = 0; c0 < column_np; c0 += mpm::kShapeBatch)
                       column.material->update_stress_batch(
                           stress_states.data() + c0,
                           std::min(mpm::kShapeBatch, column_np - c0),
                           out.data() + c0);
                     std::vector<ad::Real> bits;
                     append_bytes(bits, out);
                     return bits;
                   }});

  std::printf("\n%22s %12s %12s %9s %9s\n", "kernel", "scalar ms", "simd ms",
              "speedup", "bitwise");
  std::vector<std::pair<std::string, double>> fields;
  bool all_bitwise = true;
  for (const KernelCase& kc : cases) {
    simd::set_enabled(false);
    const std::vector<ad::Real> ref = kc.run();
    const double scalar_ms = time_ms(kc.run, kReps);
    simd::set_enabled(true);
    const std::vector<ad::Real> got = kc.run();
    const double simd_ms = time_ms(kc.run, kReps);
    const bool bitwise = same_bits(ref, got);
    all_bitwise = all_bitwise && bitwise;
    const double speedup = simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0;
    std::printf("%22s %12.3f %12.3f %8.2fx %9s\n", kc.name.c_str(), scalar_ms,
                simd_ms, speedup, bitwise ? "yes" : "NO");
    fields.emplace_back(kc.name + "_scalar_ms", scalar_ms);
    fields.emplace_back(kc.name + "_simd_ms", simd_ms);
    fields.emplace_back(kc.name + "_speedup", speedup);
    fields.emplace_back(kc.name + "_bitwise", bitwise ? 1.0 : 0.0);
  }
  simd::set_enabled(true);

  // The MLP rows, through each leaf the CPU runs; the speedup is the
  // scalar leaf's time over the leaf linear_act_rows dispatches to.
  const MlpRowsCase mlp_rows(rng);
  const std::vector<ad::Real> mlp_ref = mlp_rows.run(ad::RowsLeaf::Scalar);
  bool mlp_bitwise = true;
  double mlp_scalar_ms = 0.0, mlp_dispatched_ms = 0.0;
  const std::pair<ad::RowsLeaf, const char*> leaves[] = {
      {ad::RowsLeaf::Scalar, "scalar"},
      {ad::RowsLeaf::Avx2, "avx2"},
      {ad::RowsLeaf::Avx512, "avx512"}};
  std::printf("\n%22s %12s %9s\n", "mlp_rows leaf", "ms", "bitwise");
  for (const auto& [leaf, name] : leaves) {
    if (!ad::rows_leaf_available(leaf)) {
      std::printf("%22s %12s %9s\n", name, "-", "-");
      continue;
    }
    const bool bitwise = same_bits(mlp_rows.run(leaf), mlp_ref);
    const double ms = time_ms([&] { mlp_rows.run(leaf); }, kReps);
    mlp_bitwise = mlp_bitwise && bitwise;
    if (leaf == ad::RowsLeaf::Scalar) mlp_scalar_ms = ms;
    if (leaf == ad::rows_leaf()) mlp_dispatched_ms = ms;
    std::printf("%22s %12.3f %9s\n", name, ms, bitwise ? "yes" : "NO");
    fields.emplace_back(std::string("mlp_rows_") + name + "_ms", ms);
  }
  const double mlp_speedup =
      mlp_dispatched_ms > 0.0 ? mlp_scalar_ms / mlp_dispatched_ms : 0.0;
  std::printf("%22s %11.2fx\n", "mlp_rows speedup", mlp_speedup);
  fields.emplace_back("mlp_rows_speedup", mlp_speedup);
  fields.emplace_back("mlp_rows_bitwise", mlp_bitwise ? 1.0 : 0.0);
  all_bitwise = all_bitwise && mlp_bitwise;

  fields.emplace_back("avx2", simd::cpu_has_avx2() ? 1.0 : 0.0);
  fields.emplace_back("avx512", simd::cpu_has_avx512f() ? 1.0 : 0.0);
  fields.emplace_back("bitwise_identical", all_bitwise ? 1.0 : 0.0);
  write_json("kernels", fields);
  print_rule();
  std::printf("bitwise identical scalar vs every simd leaf: %s\n",
              all_bitwise ? "yes" : "NO — dispatch bug");
  return all_bitwise ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--kernels") == 0) return run_kernel_suite();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
