// Micro-kernel benchmarks (google-benchmark): the per-step building
// blocks whose throughput determines every experiment's wall time —
// MPM step, radius-graph construction, GNS forward/backward, autograd
// GEMM, SR expression evaluation.
//
// `--kernels` instead runs the hand-timed SIMD kernel suite: each
// GNS_SIMD-dispatched kernel (gather/scatter, layer_norm, concat,
// fused edge features, MPM step) timed scalar vs SIMD with a bitwise
// cross-check, written to BENCH_kernels.json for the CI artifact.

#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>

#include "ad/nn.hpp"
#include "ad/optim.hpp"
#include "bench_common.hpp"
#include "core/datagen.hpp"
#include "core/trainer.hpp"
#include "graph/neighbor_search.hpp"
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
    graph::Graph g = graph::build_radius_graph(pts, 0.04);
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

int run_kernel_suite() {
  using namespace gns::bench;
  print_header("SIMD kernel suite: scalar vs AVX2-dispatched twins",
               "vectorization changes cost, not bits");
  std::printf("avx2: %s\n", simd::cpu_has_avx2() ? "yes" : "no");

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
                     std::vector<ad::Real> out;
                     for (const auto& p : solver.particles().position) {
                       out.push_back(p.x);
                       out.push_back(p.y);
                     }
                     return out;
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
    const bool bitwise = ref == got;
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
  fields.emplace_back("avx2", simd::cpu_has_avx2() ? 1.0 : 0.0);
  fields.emplace_back("bitwise_identical", all_bitwise ? 1.0 : 0.0);
  write_json("kernels", fields);
  print_rule();
  std::printf("bitwise identical scalar vs simd: %s\n",
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
