#pragma once

/// \file bench_common.hpp
/// Shared fixtures for the experiment benches: the canonical scenes and
/// model configurations of DESIGN.md's experiment index, trained once and
/// cached on disk (./bench_cache) so that every table/figure bench can
/// reuse the same weights and re-runs are cheap.
///
/// Two trained particle models cover the granular experiments:
///  * "columns":  φ-conditioned GNS trained on column collapses over a
///                friction-angle sweep (E1 accuracy, E3 hybrid, E4 inverse)
///  * "squares":  GNS trained on randomized square granular masses
///                (§3.1's training distribution; out-of-distribution probe)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/datagen.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace gns::bench {

using namespace gns::core;

/// Every bench honors GNS_TRACE / GNS_TRACE_FILE / GNS_METRICS_FILE simply
/// by including this header: tracing and the atexit dump hooks are armed
/// before main() runs.
inline const bool kObsInstalled = obs::install_from_env();

inline std::string cache_dir() {
  const char* env = std::getenv("GNS_BENCH_CACHE");
  std::string dir = env ? env : "bench_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Dumps bench results as a flat JSON object to
/// `<cache_dir>/BENCH_<name>.json` — the machine-readable artifact CI
/// uploads and gates on. Always records exec_workers, the global
/// executor's worker count (GNS_EXEC_WORKERS pins it), so a result file
/// carries the parallelism it was measured under.
inline void write_json(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& fields) {
  const std::string path = cache_dir() + "/BENCH_" + name + ".json";
  std::ofstream out(path);
  out.precision(10);
  out << "{\n  \"exec_workers\": " << exec::Executor::global().workers();
  for (const auto& [key, value] : fields)
    out << ",\n  \"" << key << "\": " << value;
  out << "\n}\n";
  std::printf("[json] wrote %s\n", path.c_str());
}

// ---- Canonical granular scene (single-core-budget scale) -------------------

inline mpm::GranularSceneParams granular_scene() {
  mpm::GranularSceneParams params;
  params.cells_x = 32;
  params.cells_y = 16;
  params.domain_width = 1.0;
  params.domain_height = 0.5;
  params.particles_per_cell_dim = 2;
  return params;
}

constexpr double kColumnWidth = 0.15;
constexpr double kColumnAspect = 2.0;
constexpr int kFrames = 60;
constexpr int kSubsteps = 20;

inline FeatureConfig granular_features(bool material) {
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 5;
  fc.connectivity_radius = 0.04;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 0.5};
  fc.material_feature = material;
  return fc;
}

inline GnsConfig granular_model(bool attention = false) {
  GnsConfig gc;
  gc.latent = 32;
  gc.mlp_hidden = 32;
  gc.mlp_layers = 2;
  gc.message_passing_steps = 3;
  gc.attention = attention;
  return gc;
}

inline TrainConfig granular_training(int steps = 2500) {
  TrainConfig tc;
  tc.steps = steps;
  tc.lr = 2e-3;
  tc.lr_final = 2e-4;
  tc.noise_std = 3e-4;
  tc.log_every = 500;
  return tc;
}

/// Friction sweep the φ-conditioned model trains on (φ = 30° is held out —
/// it is the inverse problem's target).
inline std::vector<double> training_frictions() {
  return {20.0, 25.0, 35.0, 40.0, 45.0};
}

/// Loads the cached "columns" simulator or trains and caches it.
inline LearnedSimulator columns_simulator(bool verbose = true) {
  const std::string path = cache_dir() + "/gns_columns_v1.bin";
  if (auto sim = load_simulator(path)) {
    if (verbose) std::printf("[cache] loaded columns model from %s\n",
                             path.c_str());
    return std::move(*sim);
  }
  if (verbose)
    std::printf("[train] columns model (friction sweep, %d steps)...\n",
                granular_training().steps);
  Timer timer;
  io::Dataset ds = generate_column_dataset(
      granular_scene(), training_frictions(), kColumnWidth, kColumnAspect,
      kFrames, kSubsteps);
  LearnedSimulator sim =
      make_simulator(ds, granular_features(true), granular_model());
  train_gns(sim, ds, granular_training());
  save_simulator(sim, path);
  if (verbose)
    std::printf("[train] columns model done in %.0f s -> %s\n",
                timer.seconds(), path.c_str());
  return sim;
}

/// Loads the cached "squares" simulator (random square masses, §3.1) or
/// trains and caches it.
/// Shared config of the squares training distribution (§3.1): 12 random
/// square masses with moderate initial speeds; evaluation draws use the
/// same distribution with a different seed.
inline MpmDataGenConfig squares_datagen() {
  MpmDataGenConfig dg;
  dg.scene = granular_scene();
  dg.num_trajectories = 12;
  dg.frames = 50;
  dg.substeps = kSubsteps;
  dg.max_speed = 0.5;
  dg.seed = 1234;
  return dg;
}

inline LearnedSimulator squares_simulator(bool verbose = true) {
  const std::string path = cache_dir() + "/gns_squares_v2.bin";
  if (auto sim = load_simulator(path)) {
    if (verbose) std::printf("[cache] loaded squares model from %s\n",
                             path.c_str());
    return std::move(*sim);
  }
  if (verbose) std::printf("[train] squares model...\n");
  Timer timer;
  io::Dataset ds = generate_granular_dataset(squares_datagen());
  LearnedSimulator sim =
      make_simulator(ds, granular_features(false), granular_model());
  train_gns(sim, ds, granular_training(4000));
  save_simulator(sim, path);
  if (verbose)
    std::printf("[train] squares model done in %.0f s -> %s\n",
                timer.seconds(), path.c_str());
  return sim;
}

/// Loads the cached "fluid" simulator (dam breaks, NewtonianFluid) or
/// trains and caches it — the fluid half of the paper's title.
inline LearnedSimulator fluid_simulator(bool verbose = true) {
  const std::string path = cache_dir() + "/gns_fluid_v1.bin";
  if (auto sim = load_simulator(path)) {
    if (verbose) std::printf("[cache] loaded fluid model from %s\n",
                             path.c_str());
    return std::move(*sim);
  }
  if (verbose) std::printf("[train] fluid (dam break) model...\n");
  Timer timer;
  FluidDataGenConfig dg;
  dg.scene.cells_x = 32;
  dg.scene.cells_y = 16;
  dg.num_trajectories = 6;
  dg.frames = 50;
  dg.substeps = 15;
  io::Dataset ds = generate_dam_break_dataset(dg);
  LearnedSimulator sim =
      make_simulator(ds, granular_features(false), granular_model());
  TrainConfig tc = granular_training(2200);
  tc.noise_std = 5e-4;  // fluid frames move farther per step
  train_gns(sim, ds, tc);
  save_simulator(sim, path);
  if (verbose)
    std::printf("[train] fluid model done in %.0f s -> %s\n",
                timer.seconds(), path.c_str());
  return sim;
}

// ---- Table helpers ----------------------------------------------------------

inline void print_header(const char* experiment, const char* paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

inline void print_rule() {
  std::printf("----------------------------------------------------------------\n");
}

}  // namespace gns::bench
