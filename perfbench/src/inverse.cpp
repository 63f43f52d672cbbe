// The ad layer, measured in the traced run of rollout_fig3: Fig-5
// gradient-descent iterations (k = 30 taped rollout_diff + backward, lr as
// in the Fig-5 experiment) taken apart into their public calls, carrying φ
// forward from 45° toward a seed-picked target.
//
// A whole Fig-5 iteration is not an end-to-end workload: its time spread
// across runs (about 26-29% between quartiles on a 4-vCPU VM) is wider than
// any bound the benchmark could gate on. See perfbench/README.md.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.hpp"
#include "core/datagen.hpp"
#include "core/inverse.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using namespace gns;

namespace {

constexpr double kInitialPhi = 45.0;
constexpr int kAdIterations = 3;

core::InverseConfig fig5_config() {
  core::InverseConfig ic;
  ic.rollout_steps = 30;  // k = 30, as in the paper
  ic.max_iterations = 1;
  ic.lr = 80.0;
  ic.smooth_temp = 0.01;
  ic.loss_tol = 1e-8;
  return ic;
}

/// The gradient-descent update solve_friction_angle applies between its
/// iterations, so φ carries forward exactly as in a multi-iteration solve.
double next_phi(const core::InverseConfig& ic, double material,
                double gradient) {
  const double lo = core::material_param_from_friction(ic.min_friction_deg);
  const double hi = core::material_param_from_friction(ic.max_friction_deg);
  return std::atan(std::clamp(material - ic.lr * gradient, lo, hi)) * 180.0 /
         M_PI;
}

core::Window detached(const core::Window& window) {
  core::Window seed;
  for (const auto& t : window) seed.push_back(t.detach());
  return seed;
}

/// One iteration of solve_friction_angle's loop, taken apart with spans.
/// Returns dJ/d(tan φ).
double traced_iteration(const core::LearnedSimulator& sim,
                        const core::Window& window, double target_runout,
                        const core::InverseConfig& ic, double phi,
                        Spans& spans) {
  SpanScope iteration(spans, "ad.iteration");
  ad::Tensor theta = ad::Tensor::scalar(
      core::material_param_from_friction(phi), /*requires_grad=*/true);
  core::SceneContext context;
  context.material = theta;
  std::vector<ad::Tensor> frames;
  {
    SpanScope span(spans, "ad.taped_forward");
    frames = sim.rollout_diff(detached(window), ic.rollout_steps, context);
  }
  ad::Tensor loss;
  {
    SpanScope span(spans, "ad.loss");
    ad::Tensor runout = core::smooth_runout(frames.back(), ic.smooth_temp);
    loss = ad::square(ad::add_scalar(runout, -target_runout));
  }
  {
    SpanScope span(spans, "ad.backward");
    loss.backward();
  }
  return theta.grad().empty() ? 0.0 : theta.grad()[0];
}

/// Resident growth across one taped forward, in MiB. Free heap pages are
/// returned to the system first, so reuse of earlier iterations' memory
/// does not hide the tape.
double tape_mb(const core::LearnedSimulator& sim, const core::Window& window,
               const core::InverseConfig& ic) {
  malloc_trim(0);
  const double before = current_rss_mb();
  core::SceneContext context;
  context.material = ad::Tensor::scalar(
      core::material_param_from_friction(kInitialPhi), /*requires_grad=*/true);
  auto frames = sim.rollout_diff(detached(window), ic.rollout_steps, context);
  return current_rss_mb() - before;
}

}  // namespace

void measure_ad_layer(const Options& opt, Spans& spans, Result& result) {
  const double target_phi = seeded_angle(opt.seed, 27.0, 33.0);
  const core::LearnedSimulator sim = load_fixture(opt.fixture);
  const core::InverseConfig ic = fig5_config();
  // Target: the runout of the same simulator at the target angle (the
  // self-consistent Fig-5 problem), seeded from the MPM column.
  const core::Window window = sim.window_from_trajectory(
      fig3_reference(target_phi, sim.features().window_size()));
  core::SceneContext target_context;
  target_context.material =
      ad::Tensor::scalar(core::material_param_from_friction(target_phi));
  const double target_runout = core::smooth_runout_value(
      sim.rollout(window, ic.rollout_steps, target_context).back(),
      sim.features().dim, ic.smooth_temp);
  const double expected =
      core::solve_friction_angle(sim, window, target_runout, kInitialPhi, ic)
          .final()
          .gradient;

  obs::set_trace_enabled(true);
  double phi = kInitialPhi;
  long bad = 0;
  for (int i = 0; i < kAdIterations; ++i) {
    const double material = core::material_param_from_friction(phi);
    const double gradient =
        traced_iteration(sim, window, target_runout, ic, phi, spans);
    ++result.attempted;
    const bool same =
        i > 0 || std::memcmp(&gradient, &expected, sizeof(double)) == 0;
    if (!std::isfinite(gradient) || !same) ++bad;
    phi = next_phi(ic, material, gradient);
  }
  obs::set_trace_enabled(false);

  result.add("ad.taped_forward_ms", "ms",
             median(spans.durations_ms("ad.taped_forward")));
  result.add("ad.backward_ms", "ms",
             median(spans.durations_ms("ad.backward")));
  result.add("ad.tape_mb", "MiB", tape_mb(sim, window, ic));
  result.failed += bad;
  result.check(bad == 0,
               "a Fig-5 gradient is not finite or differs from "
               "solve_friction_angle");
  result.check(std::abs(phi - target_phi) < std::abs(kInitialPhi - target_phi),
               "phi did not move toward the target: " + std::to_string(phi) +
                   " deg vs target " + std::to_string(target_phi));
}

}  // namespace perfbench
