// E7 — attention ablation (§3): the paper extends GNS with a graph
// attention mechanism and argues it "improves predictions over long-time
// scales ... to represent dynamically changing neighbors". We train
// matched models with and without edge attention on the same data/budget
// and compare one-step loss and rollout error growth.

#include "bench_common.hpp"
#include "util/csv.hpp"

using namespace gns;
using namespace gns::bench;

namespace {

struct Variant {
  const char* name;
  bool attention;
  double final_loss = 0.0;
  std::vector<double> rollout_err{};
  double train_seconds = 0.0;
};

}  // namespace

int main() {
  print_header(
      "E7: processor attention ablation",
      "attention improves long-rollout predictions (sec. 3)");

  // Smaller budget than the headline model: the comparison is paired.
  mpm::GranularSceneParams scene = granular_scene();
  io::Dataset train = generate_column_dataset(
      scene, {20.0, 30.0, 40.0}, kColumnWidth, kColumnAspect, 50, kSubsteps);
  io::Dataset test = generate_column_dataset(
      scene, {25.0}, kColumnWidth, kColumnAspect, 50, kSubsteps);

  FeatureConfig fc = granular_features(true);
  GnsConfig base = granular_model();
  base.latent = 24;
  base.mlp_hidden = 24;
  base.message_passing_steps = 3;

  TrainConfig tc = granular_training(800);
  tc.log_every = 0;

  Variant variants[] = {{"plain sum aggregation", false},
                        {"edge attention (segment softmax)", true}};
  const auto& traj = test.trajectories[0];

  for (auto& v : variants) {
    GnsConfig gc = base;
    gc.attention = v.attention;
    LearnedSimulator sim = make_simulator(train, fc, gc);
    std::printf("\n[train] %s (%lld params)...\n", v.name,
                static_cast<long long>(sim.model().num_parameters()));
    Timer timer;
    TrainReport report = train_gns(sim, train, tc);
    v.train_seconds = timer.seconds();
    v.final_loss = report.final_loss_ema;

    Window win = sim.window_from_trajectory(traj);
    SceneContext ctx;
    ctx.material = ad::Tensor::scalar(
        core::material_param_from_friction(25.0));
    const int window = sim.features().window_size();
    auto frames = sim.rollout(win, traj.num_frames() - window, ctx);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      v.rollout_err.push_back(
          position_error(frames[f], traj.frames[window + f], 2, 1.0));
    }
  }

  CsvWriter csv(cache_dir() + "/ablation_attention.csv",
                {"frame", "plain_pct", "attention_pct"});
  std::printf("\nrollout error (%% domain) on held-out phi = 25 deg:\n");
  std::printf("%8s %14s %14s\n", "frame", "plain", "attention");
  const std::size_t n = variants[0].rollout_err.size();
  for (std::size_t f = 0; f < n; ++f) {
    if (f % 5 == 4 || f + 1 == n) {
      std::printf("%8zu %14.2f %14.2f\n", f + 1,
                  100 * variants[0].rollout_err[f],
                  100 * variants[1].rollout_err[f]);
    }
    csv.row({static_cast<double>(f + 1), 100 * variants[0].rollout_err[f],
             100 * variants[1].rollout_err[f]});
  }

  print_rule();
  for (const auto& v : variants) {
    std::printf("%-36s loss_ema %.4f  final err %.2f%%  train %.0f s\n",
                v.name, v.final_loss, 100 * v.rollout_err.back(),
                v.train_seconds);
  }
  std::printf(
      "\npaper claim is directional (attention helps long rollouts); the\n"
      "paired comparison above is this budget's measurement. Attention\n"
      "adds parameters, so at small budgets it can lag the plain model\n"
      "even with a better one-step loss.\n");
  return 0;
}
