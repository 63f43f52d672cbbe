// Trainer: the loop learns a learnable system (constant-acceleration free
// fall) quickly; loss history bookkeeping; config validation.

#include <gtest/gtest.h>

#include "core/datagen.hpp"
#include "core/trainer.hpp"

namespace gns::core {
namespace {

/// Free-fall trajectories: x constant, y parabolic. The simplest dynamics
/// with a nonzero target the GNS must learn (a constant acceleration).
io::Dataset free_fall_dataset(int trajectories, int frames, int particles) {
  io::Dataset ds;
  Rng rng(7);
  const double g = -0.002;  // frame units
  for (int k = 0; k < trajectories; ++k) {
    io::Trajectory traj;
    traj.dim = 2;
    traj.num_particles = particles;
    traj.domain_lo = {0.0, 0.0};
    traj.domain_hi = {1.0, 1.0};
    std::vector<double> x0(particles * 2);
    for (auto& v : x0) v = rng.uniform(0.3, 0.7);
    for (int t = 0; t < frames; ++t) {
      std::vector<double> frame(particles * 2);
      for (int p = 0; p < particles; ++p) {
        frame[2 * p] = x0[2 * p];
        frame[2 * p + 1] = x0[2 * p + 1] + 0.5 * g * t * t;
      }
      traj.add_frame(std::move(frame));
    }
    ds.trajectories.push_back(std::move(traj));
  }
  return ds;
}

LearnedSimulator small_sim(const io::Dataset& ds) {
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.3;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 1.0};
  GnsConfig gc;
  gc.latent = 12;
  gc.mlp_hidden = 12;
  gc.mlp_layers = 1;
  gc.message_passing_steps = 2;
  return make_simulator(ds, fc, gc);
}

TEST(Trainer, LossDecreasesOnFreeFall) {
  io::Dataset ds = free_fall_dataset(2, 12, 4);
  LearnedSimulator sim = small_sim(ds);
  TrainConfig tc;
  tc.steps = 120;
  tc.lr = 3e-3;
  tc.lr_final = 1e-3;
  tc.noise_std = 0.0;
  TrainReport report = train_gns(sim, ds, tc);
  ASSERT_EQ(report.loss_history.size(), 120u);
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 10; ++i) early += report.loss_history[i];
  for (int i = 110; i < 120; ++i) late += report.loss_history[i];
  EXPECT_LT(late, 0.5 * early);
}

TEST(Trainer, RolloutTracksFreeFall) {
  io::Dataset ds = free_fall_dataset(2, 14, 4);
  LearnedSimulator sim = small_sim(ds);
  TrainConfig tc;
  tc.steps = 250;
  tc.lr = 3e-3;
  tc.noise_std = 0.0;
  train_gns(sim, ds, tc);
  const auto& traj = ds.trajectories[0];
  Window win = sim.window_from_trajectory(traj);
  auto frames = sim.rollout(win, 5, SceneContext{});
  const double err = position_error(
      frames.back(), traj.frames[sim.features().window_size() + 4], 2);
  EXPECT_LT(err, 0.01);
}

TEST(Trainer, NoiseInjectionStillConverges) {
  io::Dataset ds = free_fall_dataset(2, 12, 4);
  LearnedSimulator sim = small_sim(ds);
  TrainConfig tc;
  tc.steps = 150;
  tc.lr = 3e-3;
  tc.noise_std = 1e-4;
  TrainReport report = train_gns(sim, ds, tc);
  EXPECT_LT(report.final_loss_ema, report.loss_history[0] * 1.5);
  EXPECT_GT(report.final_loss_ema, 0.0);
}

TEST(Trainer, DeterministicWithSameSeed) {
  io::Dataset ds = free_fall_dataset(1, 10, 3);
  LearnedSimulator a = small_sim(ds);
  LearnedSimulator b = small_sim(ds);
  TrainConfig tc;
  tc.steps = 30;
  tc.seed = 99;
  TrainReport ra = train_gns(a, ds, tc);
  TrainReport rb = train_gns(b, ds, tc);
  for (int i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(ra.loss_history[i], rb.loss_history[i]);
  }
}

TEST(Trainer, RejectsTooShortTrajectories) {
  io::Dataset ds = free_fall_dataset(1, 4, 3);  // window=4 needs 5 frames
  LearnedSimulator sim = small_sim(ds);
  TrainConfig tc;
  tc.steps = 1;
  EXPECT_THROW(train_gns(sim, ds, tc), CheckError);
}

TEST(Trainer, MakeSimulatorAdoptsDomainFromData) {
  io::Dataset ds = free_fall_dataset(1, 10, 3);
  ds.trajectories[0].domain_hi = {2.0, 3.0};
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.3;
  fc.domain_lo.clear();
  fc.domain_hi.clear();
  GnsConfig gc;
  gc.latent = 8;
  gc.mlp_hidden = 8;
  gc.mlp_layers = 1;
  gc.message_passing_steps = 1;
  LearnedSimulator sim = make_simulator(ds, fc, gc);
  EXPECT_DOUBLE_EQ(sim.features().domain_hi[1], 3.0);
}

TEST(Trainer, MakeSimulatorAdoptsDomainFromDataForDimOne) {
  // FeatureConfig's default domain is 2-D; a dim-1 config that keeps it
  // takes the data's. The §6 n-body balls live in [0, 2].
  NBodyDataGenConfig data;
  data.num_trajectories = 1;
  data.frames = 6;
  data.substeps = 2;
  const io::Dataset ds = generate_nbody_dataset(data);
  FeatureConfig fc;
  fc.dim = 1;
  fc.history = 2;
  fc.connectivity_radius = 0.25;
  fc.static_node_attrs = 2;  // radius, mass
  GnsConfig gc;
  gc.latent = 8;
  gc.mlp_hidden = 8;
  gc.mlp_layers = 1;
  gc.message_passing_steps = 1;
  const LearnedSimulator sim = make_simulator(ds, fc, gc);
  EXPECT_EQ(sim.features().domain_lo, std::vector<double>{0.0});
  EXPECT_EQ(sim.features().domain_hi, std::vector<double>{2.0});
}

TEST(Trainer, L1MessagePenaltyShrinksMessages) {
  io::Dataset ds = free_fall_dataset(2, 12, 4);
  LearnedSimulator plain = small_sim(ds);
  LearnedSimulator sparse = small_sim(ds);
  TrainConfig tc;
  tc.steps = 150;
  tc.lr = 3e-3;
  tc.noise_std = 0.0;
  train_gns(plain, ds, tc);
  tc.l1_message_weight = 0.5;
  train_gns(sparse, ds, tc);
  // Compare mean |message| on a fixed window.
  Window win = plain.window_from_trajectory(ds.trajectories[0]);
  ad::NoGradGuard guard;
  auto mean_abs = [&](LearnedSimulator& sim) {
    GnsOutput out = sim.forward_raw(win, SceneContext{});
    double acc = 0.0;
    for (int i = 0; i < out.messages.size(); ++i)
      acc += std::abs(out.messages.data()[i]);
    return acc / out.messages.size();
  };
  EXPECT_LT(mean_abs(sparse), mean_abs(plain));
}

}  // namespace
}  // namespace gns::core
