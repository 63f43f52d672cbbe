#pragma once

/// \file trainer.hpp
/// GNS training loop (§3.1). One gradient step = one (trajectory, time)
/// sample: corrupt the position window with random-walk noise (the standard
/// GNS trick that teaches the model to correct its own rollout drift),
/// predict the normalized acceleration, regress against the noise-adjusted
/// finite-difference target with MSE, and optionally add an L1 penalty on
/// the edge messages (§6 interpretability: sparsify the learned
/// interaction code).

#include <functional>

#include "ad/optim.hpp"
#include "core/simulator.hpp"

namespace gns::core {

struct TrainConfig {
  int steps = 2000;
  double lr = 1e-3;                 ///< Adam learning rate (start)
  double lr_final = 1e-4;           ///< exponential decay target
  double noise_std = 3e-4;          ///< random-walk noise per frame [m]
  double l1_message_weight = 0.0;   ///< §6 sparsity penalty
  double grad_clip = 1.0;           ///< global-norm clip (0 disables)
  std::uint64_t seed = 17;
  int log_every = 0;                ///< 0 = silent
};

struct TrainReport {
  std::vector<double> loss_history;    ///< per-step training loss
  double final_loss_ema = 0.0;         ///< smoothed terminal loss
  std::int64_t steps = 0;
};

/// Trains `sim`'s model in place on `dataset`. The per-trajectory
/// material_param is fed as the material feature when the feature config
/// asks for one. `progress` (optional) is invoked every log_every steps
/// with (step, smoothed loss).
TrainReport train_gns(
    LearnedSimulator& sim, const io::Dataset& dataset,
    const TrainConfig& config,
    const std::function<void(int, double)>& progress = nullptr);

/// Builds a GNS + simulator pair wired to a dataset: computes
/// normalization stats, sizes the model's input widths from the feature
/// config, and returns the ready-to-train simulator. The feature domain is
/// the dataset's unless `features.domain_lo`/`domain_hi` hold exactly
/// `features.dim` entries each.
[[nodiscard]] LearnedSimulator make_simulator(const io::Dataset& dataset,
                                              FeatureConfig features,
                                              GnsConfig model_config,
                                              std::uint64_t seed = 42);

}  // namespace gns::core
