// E2 — §3.1 / §8 speedup claim: GNS rollout vs parallel CPU MPM.
//
// Paper claim: "GNS achieves over 165x speedup compared with distributed
// memory parallel CB-Geo MPM code" (GPU inference vs CPU MPM).
//
// On this all-CPU reproduction we measure the mechanism rather than the
// A100 number: one GNS frame replaces `substeps` stability-limited MPM
// steps, so the learned surrogate's advantage grows with the stiffness-
// bound CFL. We report wall-clock per simulated frame for both, the
// measured ratio, and the ratio normalized per model-evaluation so the
// GPU-vs-CPU gap the paper exploits is explicit.

#include "bench_common.hpp"
#include "core/hybrid.hpp"

using namespace gns;
using namespace gns::bench;

int main() {
  print_header("E2: forward-simulation speedup, GNS vs MPM",
               ">165x on GPU inference vs parallel CPU MPM (sec. 3.1)");
  std::printf("executor workers: %d (set GNS_EXEC_WORKERS to pin)\n",
              exec::Executor::global().workers());

  LearnedSimulator sim = columns_simulator();

  // Identical physical horizon for both: `frames` recorded frames.
  const int frames = 40;
  mpm::Scene scene =
      mpm::make_column_collapse(granular_scene(), kColumnWidth,
                                kColumnAspect);

  std::printf("\nscene: %d particles, %d frames x %d MPM substeps/frame\n",
              scene.particles.size(), frames, kSubsteps);

  // MPM baseline.
  MpmReference ref =
      run_mpm_reference(scene.make_solver(), frames, kSubsteps);

  // GNS rollout (warm-up excluded from its timing: measured inside).
  HybridResult gns =
      run_pure_gns(sim, scene.make_solver(), frames, kSubsteps,
                   core::material_param_from_friction(30.0));

  const double mpm_per_frame = ref.seconds / (frames - 1);
  const double gns_per_frame = gns.gns_seconds / gns.gns_frame_count;
  const double ratio = mpm_per_frame / gns_per_frame;

  print_rule();
  std::printf("%-34s %12.3f ms/frame\n", "MPM (parallel explicit, CFL dt)",
              1e3 * mpm_per_frame);
  std::printf("%-34s %12.3f ms/frame\n", "GNS rollout (CPU inference)",
              1e3 * gns_per_frame);
  std::printf("%-34s %12.2fx\n", "measured CPU/CPU speedup", ratio);
  print_rule();
  std::printf(
      "paper: >165x with GPU (A100) inference against CPU MPM.\n"
      "mechanism check: 1 GNS step spans %d MPM substeps; the paper's\n"
      "factor = substep amortization x (GPU/CPU inference gap). Our\n"
      "measured CPU-only ratio isolates the first factor%s.\n",
      kSubsteps,
      ratio > 1.0 ? " and the surrogate already wins on CPU" : "");

  // Scaling probe: the GNS advantage grows with substep count (stiffer
  // materials shrink the MPM dt; the GNS frame cost is unchanged).
  std::printf("\nsubstep amortization sweep (same scene):\n");
  std::printf("%12s %16s %16s %10s\n", "substeps", "MPM ms/frame",
              "GNS ms/frame", "ratio");
  for (int sub : {5, 10, 20, 40}) {
    MpmReference r = run_mpm_reference(scene.make_solver(), 10, sub);
    const double mpm_ms = 1e3 * r.seconds / 9;
    std::printf("%12d %16.3f %16.3f %10.2fx\n", sub, mpm_ms,
                1e3 * gns_per_frame, mpm_ms / (1e3 * gns_per_frame));
  }

  write_json("speedup",
                   {{"mpm_ms_per_frame", 1e3 * mpm_per_frame},
                    {"gns_ms_per_frame", 1e3 * gns_per_frame},
                    {"speedup", ratio},
                    {"substeps", static_cast<double>(kSubsteps)}});
  return 0;
}
