// Perf — steady-state rollout throughput. The tensor arena and the fused
// linear kernels are always on; this sweeps the one remaining runtime
// toggle, the scalar or AVX2 leaf kernels of the graph/MPM ops (GNS_SIMD).
//
// Runs SIMD off and on on the Fig-3 columns configuration (held-out
// friction angle), reports steps/sec for each, and verifies that both
// produce bitwise-identical rollout frames — the kernels trade passes for
// speed, never results. It also steps the same rollout with grad mode on,
// detaching each new frame: that runs the taped op chain instead of the
// untaped row kernels rollouts use, and its frames must be identical too.
// The timed rollouts run inside one ad::ArenaLifetime, so the pool
// persists between them and arena_hit_rate (from the ad.arena.hit and
// ad.arena.miss counters) measures steady-state pooling.
//
// `--small` runs a scaled-down fixture (tiny model trained in seconds,
// cached) for CI perf-smoke; the JSON then carries small=1.
//
// Output: BENCH_rollout.json in the bench cache with v0_steps_per_sec and
// v1_steps_per_sec (SIMD off/on) plus speedup_simd, arena_hit_rate, and
// identical_outputs (SIMD off, SIMD on and the op chain all agree).

#include <array>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "util/simd.hpp"

using namespace gns;
using namespace gns::bench;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  const bool small =
      argc > 1 && std::strcmp(argv[1], "--small") == 0;
  print_header(
      "Rollout perf: SIMD kernels off / on",
      "kernels change cost, not results (bitwise-identical frames)");

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
  // A --small rollout takes a few ms, so take the best of more reps: the
  // speedup_simd ratio of two short timings is otherwise noise-bound.
  const int reps = small ? 10 : 5;
  std::printf("\n%d particles, %d rollout steps, best of %d reps\n",
              traj.num_particles, steps, reps);
  std::printf("%12s %14s %10s\n", "GNS_SIMD", "steps/sec", "identical");

  auto& arena_hits = obs::MetricsRegistry::global().counter("ad.arena.hit");
  auto& arena_misses =
      obs::MetricsRegistry::global().counter("ad.arena.miss");

  // Reps alternate SIMD off and on (rather than timing each setting's reps
  // back to back) so slow phases of a shared machine penalize both
  // equally; best-of-reps then discards the noise floor.
  std::vector<std::vector<double>> baseline_frames;
  std::array<double, 2> best{};
  std::array<bool, 2> same{};
  bool identical = true;
  const ad::ArenaLifetime pool_lifetime;
  simd::set_enabled(false);
  (void)sim.rollout(win, steps, ctx);  // page in weights before timing
  const std::uint64_t hits0 = arena_hits.value();
  const std::uint64_t misses0 = arena_misses.value();
  for (int rep = 0; rep < reps; ++rep) {
    for (int v = 0; v < 2; ++v) {
      simd::set_enabled(v == 1);
      Timer timer;
      const std::vector<std::vector<double>> frames =
          sim.rollout(win, steps, ctx);
      best[v] = std::max(best[v], steps / timer.seconds());
      if (rep == 0 && v == 0) baseline_frames = frames;
      same[v] = frames == baseline_frames;
      identical = identical && same[v];
    }
  }
  simd::set_enabled(true);
  const double hits = static_cast<double>(arena_hits.value() - hits0);
  const double misses = static_cast<double>(arena_misses.value() - misses0);
  const double hit_rate = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;

  // The op chain: grad mode is on here and the weights require grad, so
  // each step tapes; detaching the new frame drops its tape.
  bool same_taped = true;
  {
    Window window;
    for (const auto& t : win) window.push_back(t.detach());
    for (int s = 0; s < steps && same_taped; ++s) {
      ad::Tensor next = sim.step(window, ctx).detach();
      same_taped = core::tensor_to_frame(next) == baseline_frames[s];
      window.erase(window.begin());
      window.push_back(next);
    }
  }
  identical = identical && same_taped;
  std::vector<std::pair<std::string, double>> fields;
  const char* const steps_key[2] = {"v0_steps_per_sec", "v1_steps_per_sec"};
  for (int v = 0; v < 2; ++v) {
    std::printf("%12s %14.2f %10s\n", v == 1 ? "on" : "off", best[v],
                same[v] ? "yes" : "NO");
    fields.emplace_back(steps_key[v], best[v]);
  }
  const double speedup_simd = best[0] > 0.0 ? best[1] / best[0] : 0.0;
  std::printf("%12s %14s %10s\n", "taped", "-", same_taped ? "yes" : "NO");
  print_rule();
  std::printf(
      "simd on/off speedup: %.2fx\n"
      "arena hit rate: %.4f\n"
      "outputs %s\n",
      speedup_simd, hit_rate,
      identical ? "bitwise identical with SIMD off and on and taped"
                : "DIVERGED — kernel bug");
  fields.emplace_back("speedup_simd", speedup_simd);
  fields.emplace_back("arena_hit_rate", hit_rate);
  fields.emplace_back("identical_outputs", identical ? 1.0 : 0.0);
  fields.emplace_back("particles", static_cast<double>(traj.num_particles));
  fields.emplace_back("rollout_steps", static_cast<double>(steps));
  fields.emplace_back("small", small ? 1.0 : 0.0);
  write_json("rollout", fields);
  return identical ? 0 : 1;
}
