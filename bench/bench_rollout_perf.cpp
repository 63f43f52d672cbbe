// Perf — steady-state rollout throughput. The tensor arena and the fused
// linear kernels are always on; this sweeps the two remaining runtime
// toggles, Verlet-skin neighbor reuse (GNS_SKIN) and SIMD graph/MPM
// kernels (GNS_SIMD).
//
// Runs all 4 on/off combinations on the Fig-3 columns configuration
// (held-out friction angle), reports steps/sec for each, and verifies that
// every combination produces bitwise-identical rollout frames — the
// optimizations trade allocations and passes for speed, never results.
// The timed rollouts run inside one ad::ArenaLifetime, so the pool
// persists between them and arena_hit_rate (from the ad.arena.hit and
// ad.arena.miss counters) measures steady-state pooling.
//
// `--small` runs a scaled-down fixture (tiny model trained in seconds,
// cached) for CI perf-smoke; the JSON then carries small=1.
//
// Output: BENCH_rollout.json in the bench cache with one
// s{0,1}_v{0,1}_steps_per_sec field per combination plus speedup_all_on,
// speedup_simd, arena_hit_rate, and identical_outputs.

#include <array>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "util/simd.hpp"

using namespace gns;
using namespace gns::bench;

namespace {

constexpr double kSkinFraction = 0.25;

/// Tiny fixture for --small: one short column collapse, a 16-latent model
/// trained for a few seconds, cached like the big models.
FeatureConfig small_features() {
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.05;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 0.5};
  fc.material_feature = false;
  return fc;
}

mpm::GranularSceneParams small_scene() {
  mpm::GranularSceneParams params;
  params.cells_x = 16;
  params.cells_y = 8;
  params.domain_width = 1.0;
  params.domain_height = 0.5;
  params.particles_per_cell_dim = 2;
  return params;
}

io::Dataset small_dataset() {
  return generate_column_dataset(small_scene(), {30.0}, kColumnWidth,
                                 kColumnAspect, /*frames=*/30,
                                 /*substeps=*/10);
}

LearnedSimulator small_simulator(const io::Dataset& ds) {
  const std::string path = cache_dir() + "/gns_rollout_small_v1.bin";
  if (auto sim = load_simulator(path)) {
    std::printf("[cache] loaded small model from %s\n", path.c_str());
    return std::move(*sim);
  }
  std::printf("[train] small rollout model...\n");
  GnsConfig gc;
  gc.latent = 16;
  gc.mlp_hidden = 16;
  gc.mlp_layers = 2;
  gc.message_passing_steps = 2;
  LearnedSimulator sim = make_simulator(ds, small_features(), gc);
  TrainConfig tc;
  tc.steps = 120;
  tc.lr = 2e-3;
  tc.noise_std = 3e-4;
  tc.log_every = 60;
  train_gns(sim, ds, tc);
  save_simulator(sim, path);
  return sim;
}

struct Combo {
  bool skin;
  bool simd;
  explicit Combo(int mask) : skin((mask & 2) != 0), simd((mask & 1) != 0) {}
  [[nodiscard]] std::string key() const {
    std::string k = "s";
    k += skin ? '1' : '0';
    k += "_v";
    k += simd ? '1' : '0';
    return k;
  }
  void apply() const {
    graph::set_default_skin_fraction(skin ? kSkinFraction : 0.0);
    simd::set_enabled(simd);
  }
};

constexpr int kCombos = 4;

}  // namespace

int main(int argc, char** argv) {
  const bool small =
      argc > 1 && std::strcmp(argv[1], "--small") == 0;
  print_header(
      "Rollout perf: Verlet-skin neighbor reuse / SIMD kernels",
      "optimizations change cost, not results (bitwise-identical frames)");

  io::Dataset test;
  LearnedSimulator sim = [&]() -> LearnedSimulator {
    if (small) {
      test = small_dataset();
      return small_simulator(test);
    }
    LearnedSimulator columns = columns_simulator();
    test = generate_column_dataset(granular_scene(), {30.0}, kColumnWidth,
                                   kColumnAspect, kFrames, kSubsteps);
    return columns;
  }();

  const io::Trajectory& traj = test.trajectories[0];
  const Window win = sim.window_from_trajectory(traj);
  SceneContext ctx;
  if (sim.features().material_feature)
    ctx.material = ad::Tensor::scalar(core::material_param_from_friction(30.0));
  const int steps = traj.num_frames() - sim.features().window_size();
  const int reps = small ? 2 : 5;
  std::printf("\n%d particles, %d rollout steps, best of %d reps\n",
              traj.num_particles, steps, reps);
  std::printf("%12s %14s %12s %10s\n", "combo", "steps/sec", "nbr reuse",
              "identical");

  auto& rebuilds =
      obs::MetricsRegistry::global().counter("graph.neighbor.rebuild");
  auto& reuses =
      obs::MetricsRegistry::global().counter("graph.neighbor.reuse");
  auto& arena_hits = obs::MetricsRegistry::global().counter("ad.arena.hit");
  auto& arena_misses =
      obs::MetricsRegistry::global().counter("ad.arena.miss");

  // Reps are interleaved round-robin across the 4 combos (rather than
  // timing each combo's reps back to back) so slow phases of a shared
  // machine penalize every combo equally; best-of-reps then discards the
  // noise floor.
  std::vector<std::vector<double>> baseline_frames;
  std::array<double, kCombos> best{};
  std::array<double, kCombos> reuse_frac{};
  std::array<bool, kCombos> same{};
  bool identical = true;
  const ad::ArenaLifetime pool_lifetime;
  {
    const Combo warmup(0);
    warmup.apply();
    (void)sim.rollout(win, steps, ctx);  // page in weights before timing
  }
  const std::uint64_t hits0 = arena_hits.value();
  const std::uint64_t misses0 = arena_misses.value();
  for (int rep = 0; rep < reps; ++rep) {
    for (int mask = 0; mask < kCombos; ++mask) {
      const Combo combo(mask);
      combo.apply();
      const std::uint64_t rb0 = rebuilds.value(), ru0 = reuses.value();
      Timer timer;
      const std::vector<std::vector<double>> frames =
          sim.rollout(win, steps, ctx);
      best[mask] = std::max(best[mask], steps / timer.seconds());
      const std::uint64_t rb = rebuilds.value() - rb0;
      const std::uint64_t ru = reuses.value() - ru0;
      reuse_frac[mask] =
          rb + ru > 0
              ? static_cast<double>(ru) / static_cast<double>(rb + ru)
              : 0.0;
      if (rep == 0 && mask == 0) baseline_frames = frames;
      same[mask] = frames == baseline_frames;
      identical = identical && same[mask];
    }
  }
  const double hits = static_cast<double>(arena_hits.value() - hits0);
  const double misses = static_cast<double>(arena_misses.value() - misses0);
  const double hit_rate = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  std::vector<std::pair<std::string, double>> fields;
  for (int mask = 0; mask < kCombos; ++mask) {
    const Combo combo(mask);
    std::printf("%12s %14.2f %11.0f%% %10s\n", combo.key().c_str(),
                best[mask], 100.0 * reuse_frac[mask],
                same[mask] ? "yes" : "NO");
    fields.emplace_back(combo.key() + "_steps_per_sec", best[mask]);
  }
  const double baseline_sps = best[0];
  const double all_on_sps = best[kCombos - 1];
  // speedup_simd isolates GNS_SIMD: skin on, simd on vs off.
  const double simd_off_sps = best[kCombos - 2];
  graph::set_default_skin_fraction(0.0);
  simd::set_enabled(true);

  const double speedup = baseline_sps > 0.0 ? all_on_sps / baseline_sps : 0.0;
  const double speedup_simd =
      simd_off_sps > 0.0 ? all_on_sps / simd_off_sps : 0.0;
  print_rule();
  std::printf(
      "all-on speedup over all-off: %.2fx   simd on/off (skin on): %.2fx\n"
      "arena hit rate: %.4f\n"
      "outputs %s\n",
      speedup, speedup_simd, hit_rate,
      identical ? "bitwise identical across all 4 combos"
                : "DIVERGED — optimization bug");
  fields.emplace_back("speedup_all_on", speedup);
  fields.emplace_back("speedup_simd", speedup_simd);
  fields.emplace_back("arena_hit_rate", hit_rate);
  fields.emplace_back("identical_outputs", identical ? 1.0 : 0.0);
  fields.emplace_back("particles", static_cast<double>(traj.num_particles));
  fields.emplace_back("rollout_steps", static_cast<double>(steps));
  fields.emplace_back("small", small ? 1.0 : 0.0);
  write_json("rollout", fields);
  return identical ? 0 : 1;
}
