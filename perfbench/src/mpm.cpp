// mpm_column: recording a column-collapse trajectory with MpmSolver at 4x
// the Fig-3 grid (128 x 64 cells, a 0.2-wide column of aspect 2, 5,202
// particles). At Fig-3 scale a step is too short to measure the solver
// rather than executor overhead.
//
// The traced run records the same trajectory under a span and reads the
// step and phase times from the histograms MpmSolver::step records.

#include <cmath>

#include "bench.hpp"
#include "core/datagen.hpp"
#include "flops.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using namespace gns;

namespace {

constexpr int kMpmFrames = 6;     ///< recorded frames per operation
constexpr int kMpmSubsteps = 20;  ///< MPM steps between frames
constexpr int kMpmSteps = (kMpmFrames - 1) * kMpmSubsteps;

mpm::Scene column_scene(double phi) {
  mpm::GranularSceneParams params = fig3_scene();
  params.cells_x *= 4;
  params.cells_y *= 4;
  params.material.friction_deg = phi;
  return mpm::make_column_collapse(params, 0.2, 2.0);
}

io::Trajectory record(const mpm::Scene& scene, double material) {
  mpm::MpmSolver solver = scene.make_solver();
  return core::record_mpm_trajectory(solver, kMpmFrames, kMpmSubsteps,
                                     material);
}

/// The mass P2G puts on the grid from particles at `positions`: each
/// particle's mass times its shape-function weight on the nodes inside the
/// grid (P2G skips stencil nodes outside it, so particles within half a
/// cell of a wall or the floor keep part of their mass off the grid).
double expected_grid_mass(const mpm::MpmSolver& solver,
                          const std::vector<mpm::Vec2d>& positions) {
  const mpm::Grid& grid = solver.grid();
  const mpm::ShapeKind kind = solver.config().shape;
  const double h = grid.spacing();
  double total = 0.0;
  for (std::size_t p = 0; p < positions.size(); ++p) {
    const auto wx = mpm::shape_weights(kind, positions[p].x, h);
    const auto wy = mpm::shape_weights(kind, positions[p].y, h);
    double inside = 0.0;
    for (int a = 0; a < wy.count; ++a) {
      if (wy.base + a < 0 || wy.base + a >= grid.nodes_y()) continue;
      for (int b = 0; b < wx.count; ++b)
        if (wx.base + b >= 0 && wx.base + b < grid.nodes_x())
          inside += wx.w[b] * wy.w[a];
    }
    total += solver.particles().mass[p] * inside;
  }
  return total;
}

}  // namespace

void run_mpm_column(const Options& opt, Result& result) {
  const double phi = seeded_angle(opt.seed, 25.0, 40.0);
  result.info.emplace_back("phi_deg", phi);
  const double material = core::material_param_from_friction(phi);
  mpm::Scene scene;
  const Cost setup = measure([&] {
    scene = column_scene(phi);
    warm_up([&] { (void)record(scene, material); });
  });
  if (setup_only(opt, setup, result)) return;

  const io::Trajectory expected = record(scene, material);
  const OpTimes untraced_times =
      timed_loop(opt.trace ? opt.seconds / 2 : opt.seconds,
                 [&] {
                   ++result.attempted;
                   if (!bitwise_equal(record(scene, material).frames,
                                      expected.frames))
                     ++result.failed;
                 });
  const Phase untraced = summarize(untraced_times, kMpmSteps);
  add_end_to_end(result, untraced, setup);

  if (opt.trace) {
    Spans spans;
    obs::MetricsRegistry::global().reset_prefix("mpm.");
    ExecWindow exec_window;
    exec_window.begin();
    obs::set_trace_enabled(true);
    const OpTimes times = timed_loop(opt.seconds / 2, [&] {
      ++result.attempted;
      SpanScope span(spans, "mpm.record");
      if (!bitwise_equal(record(scene, material).frames, expected.frames))
        ++result.failed;
    });
    obs::set_trace_enabled(false);
    exec_window.end(result,
                    static_cast<double>(times.wall.size()) * kMpmSteps);
    add_trace_overhead(result, untraced, summarize(times, kMpmSteps));
    const double step_ms = histogram_quantile("mpm.solver.step_ms", 0.5);
    result.add("mpm.step_ms", "ms", step_ms);
    result.add("mpm.p2g_ms", "ms",
               histogram_quantile("mpm.solver.p2g_ms", 0.5));
    result.add("mpm.grid_update_ms", "ms",
               histogram_quantile("mpm.solver.grid_update_ms", 0.5));
    result.add("mpm.g2p_ms", "ms",
               histogram_quantile("mpm.solver.g2p_ms", 0.5));
    result.add("mpm.gbps", "GB/s",
               1e-9 * mpm_step_bytes(scene.make_solver()) / (1e-3 * step_ms));
    result.add("mpm.peak_rss_mb", "MiB", peak_rss_mb());
    spans.write(opt.out_dir + "/trace-mpm_column.json");
  } else {
    result.metrics = result.reference;
  }

  // Output checks on the reference recording, after the timed phase.
  result.check(result.failed == 0,
               "MPM trajectories differ between operations");
  const int n = scene.particles.size();
  mpm::MpmSolver solver = scene.make_solver();
  (void)core::record_mpm_trajectory(solver, kMpmFrames, kMpmSubsteps,
                                    material);
  // One more step from the collapsed state: its P2G must put exactly the
  // particles' in-grid mass on the grid (to summation rounding).
  const std::vector<mpm::Vec2d> before = solver.particles().position;
  solver.step();
  double grid_mass = 0.0;
  for (double m : solver.grid().mass) grid_mass += m;
  const double mass = expected_grid_mass(solver, before);
  result.check(std::abs(grid_mass - mass) <= 1e-11 * mass,
               "P2G did not conserve mass: grid " + std::to_string(grid_mass) +
                   " vs particles " + std::to_string(mass));
  const double width = solver.grid().width();
  const double height = solver.grid().height();
  bool inside = true;
  for (const auto& frame : expected.frames) {
    inside = inside && static_cast<int>(frame.size()) == 2 * n;
    for (std::size_t i = 0; i + 1 < frame.size(); i += 2) {
      const double x = frame[i], y = frame[i + 1];
      // Written so that NaN fails every comparison.
      inside = inside && x >= 0.0 && x <= width && y >= 0.0 && y <= height;
    }
  }
  result.check(inside, "a particle position is not finite or left the domain");
}

}  // namespace perfbench
