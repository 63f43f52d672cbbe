#include "core/hybrid.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace gns::core {

namespace {

std::vector<double> solver_frame(const mpm::MpmSolver& solver) {
  const auto& pos = solver.particles().position;
  std::vector<double> flat(2 * pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    flat[2 * i] = pos[i].x;
    flat[2 * i + 1] = pos[i].y;
  }
  return flat;
}

/// Converts two consecutive recorded frames into MPM particle kinematics
/// (velocity = frame difference / frame physical time).
void push_frames_to_solver(mpm::MpmSolver& solver,
                           const std::vector<double>& prev,
                           const std::vector<double>& curr,
                           double frame_seconds) {
  const int n = solver.particles().size();
  std::vector<mpm::Vec2d> x(n), v(n);
  const double inv_dt = 1.0 / frame_seconds;
  for (int i = 0; i < n; ++i) {
    x[i] = {curr[2 * i], curr[2 * i + 1]};
    v[i] = {(curr[2 * i] - prev[2 * i]) * inv_dt,
            (curr[2 * i + 1] - prev[2 * i + 1]) * inv_dt};
  }
  solver.set_kinematics(x, v);
}

}  // namespace

HybridResult run_hybrid(const LearnedSimulator& sim, mpm::MpmSolver solver,
                        const HybridConfig& config, int total_frames,
                        double material_param) {
  GNS_CHECK(config.gns_frames > 0 && config.refine_frames >= 0 &&
            config.substeps > 0);
  const int window = sim.features().window_size();
  GNS_CHECK_MSG(total_frames > window,
                "hybrid run shorter than the GNS warm-up window");

  HybridResult result;
  result.frames.reserve(total_frames);
  result.sources.reserve(total_frames);
  AccumulatingTimer mpm_timer, gns_timer;
  static auto& gns_window_ms =
      obs::MetricsRegistry::global().histogram("core.hybrid.gns_window_ms");
  static auto& mpm_window_ms =
      obs::MetricsRegistry::global().histogram("core.hybrid.mpm_window_ms");

  SceneContext context;
  if (sim.features().material_feature) {
    context.material = ad::Tensor::scalar(material_param);
  }

  // Frame 0 + warm-up: window_size frames total from MPM.
  result.frames.push_back(solver_frame(solver));
  result.sources.push_back(FrameSource::MpmWarmup);
  double frame_seconds = 0.0;
  {
    GNS_TRACE_SCOPE("core.hybrid.warmup");
    const ScopedAccumulate accumulate(mpm_timer);
    const obs::ScopedHistogramTimer window_timer(mpm_window_ms);
    while (static_cast<int>(result.frames.size()) < window &&
           static_cast<int>(result.frames.size()) < total_frames) {
      frame_seconds = solver.run(config.substeps);
      result.frames.push_back(solver_frame(solver));
      result.sources.push_back(FrameSource::MpmWarmup);
      ++result.mpm_frame_count;
    }
  }

  // Main loop: M learned frames, K physics frames, repeat.
  while (static_cast<int>(result.frames.size()) < total_frames) {
    {
      // --- GNS leg ---
      GNS_TRACE_SCOPE("core.hybrid.gns_window");
      const ScopedAccumulate accumulate(gns_timer);
      const obs::ScopedHistogramTimer window_timer(gns_window_ms);
      Window win;
      win.reserve(window);
      const int have = static_cast<int>(result.frames.size());
      for (int t = have - window; t < have; ++t)
        win.push_back(frame_to_tensor(result.frames[t], 2));
      const int want_gns =
          std::min(config.gns_frames,
                   total_frames - static_cast<int>(result.frames.size()));
      auto gns_frames = sim.rollout(win, want_gns, context);
      for (auto& f : gns_frames) {
        result.frames.push_back(std::move(f));
        result.sources.push_back(FrameSource::Gns);
        ++result.gns_frame_count;
      }
    }
    if (static_cast<int>(result.frames.size()) >= total_frames) break;

    {
      // --- Refinement leg: hand state back to physics ---
      GNS_TRACE_SCOPE("core.hybrid.mpm_window");
      const ScopedAccumulate accumulate(mpm_timer);
      const obs::ScopedHistogramTimer window_timer(mpm_window_ms);
      const auto& curr = result.frames.back();
      const auto& prev = result.frames[result.frames.size() - 2];
      push_frames_to_solver(solver, prev, curr, frame_seconds);
      const int want_mpm =
          std::min(config.refine_frames,
                   total_frames - static_cast<int>(result.frames.size()));
      for (int k = 0; k < want_mpm; ++k) {
        frame_seconds = solver.run(config.substeps);
        result.frames.push_back(solver_frame(solver));
        result.sources.push_back(FrameSource::MpmRefine);
        ++result.mpm_frame_count;
      }
    }
  }

  result.mpm_seconds = mpm_timer.total_seconds();
  result.gns_seconds = gns_timer.total_seconds();
  return result;
}

MpmReference run_mpm_reference(mpm::MpmSolver solver, int total_frames,
                               int substeps) {
  GNS_CHECK(total_frames > 0 && substeps > 0);
  MpmReference ref;
  ref.frames.reserve(total_frames);
  Timer timer;
  ref.frames.push_back(solver_frame(solver));
  for (int f = 1; f < total_frames; ++f) {
    solver.run(substeps);
    ref.frames.push_back(solver_frame(solver));
  }
  ref.seconds = timer.seconds();
  return ref;
}

HybridResult run_pure_gns(const LearnedSimulator& sim, mpm::MpmSolver solver,
                          int total_frames, int substeps,
                          double material_param) {
  HybridConfig config;
  config.gns_frames = total_frames;  // one GNS leg, no refinement
  config.refine_frames = 0;
  config.substeps = substeps;
  return run_hybrid(sim, std::move(solver), config, total_frames,
                    material_param);
}

std::vector<double> frame_errors(const std::vector<std::vector<double>>& a,
                                 const std::vector<std::vector<double>>& b,
                                 double length_scale) {
  const std::size_t n = std::min(a.size(), b.size());
  std::vector<double> errors(n, 0.0);
  for (std::size_t t = 0; t < n; ++t)
    errors[t] = position_error(a[t], b[t], 2, length_scale);
  return errors;
}

}  // namespace gns::core
