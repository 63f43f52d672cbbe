// rollout_fig3: whole 54-step LearnedSimulator::rollout runs of the Fig-3
// granular column (190 particles), seeded from the MPM reference at a
// seed-picked friction angle.
//
// The traced run repeats the rollout with each step taken apart into the
// public calls LearnedSimulator::step makes (neighbour graph, GraphIndex,
// node + edge features, GnsModel::forward, denormalize + integrate), checks
// the frames against LearnedSimulator::rollout bitwise, and reports what
// the named calls do not cover as core.unaccounted_ms.

#include <optional>

#include "ad/arena.hpp"
#include "ad/ops.hpp"
#include "bench.hpp"
#include "core/datagen.hpp"
#include "flops.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using namespace gns;

namespace {

struct Rollout {
  std::optional<core::LearnedSimulator> sim;
  io::Trajectory reference;
  core::Window window;
  core::SceneContext context;
  int steps = 0;
};

/// One Fig-3 rollout taken apart into the calls LearnedSimulator::step
/// makes, with a span around each. Same arena and no-grad scoping as
/// LearnedSimulator::rollout, so the frames are bitwise the same.
std::vector<std::vector<double>> traced_rollout(const Rollout& r,
                                                Spans& spans,
                                                ForwardCost& cost,
                                                long& edges) {
  const core::LearnedSimulator& sim = *r.sim;
  const core::FeatureConfig& fc = sim.features();
  SpanScope rollout_span(spans, "core.rollout");
  ad::NoGradGuard no_grad;
  graph::CellList cells = core::make_rollout_cells(
      fc, graph::default_skin_fraction() * fc.connectivity_radius);
  core::Window window;
  for (const auto& t : r.window) window.push_back(t.detach());
  std::vector<std::vector<double>> frames;
  for (int s = 0; s < r.steps; ++s) {
    ad::ArenaScope arena_frame;
    ad::Tensor next;
    int nodes = 0, num_edges = 0;
    {
      SpanScope step_span(spans, "core.step");
      const ad::Tensor& newest = window.back();
      graph::Graph g;
      {
        SpanScope span(spans, "graph.build");
        g = core::build_graph_cached(fc, newest, cells);
      }
      std::optional<core::GraphIndex> index;
      {
        SpanScope span(spans, "core.index");
        index.emplace(g);
      }
      ad::Tensor node_feats, edge_feats;
      {
        SpanScope span(spans, "core.features");
        node_feats = core::build_node_features(fc, sim.normalizer(), window,
                                               r.context);
        edge_feats = core::build_edge_features(fc, newest, g, *index);
      }
      core::GnsOutput out;
      {
        SpanScope span(spans, "core.gns.forward");
        out = sim.model().forward(node_feats, edge_feats, g, *index);
      }
      {
        SpanScope span(spans, "core.integrate");
        ad::Tensor accel =
            sim.normalizer().denormalize_acceleration(out.acceleration);
        const ad::Tensor& xprev = window[window.size() - 2];
        ad::Tensor v_next = ad::add(ad::sub(newest, xprev), accel);
        next = ad::add(newest, v_next);
      }
      nodes = g.num_nodes;
      num_edges = g.num_edges();
    }
    cost += forward_cost(sim.model().config(), nodes, num_edges);
    edges += num_edges;
    frames.push_back(core::tensor_to_frame(next));
    window.erase(window.begin());
    window.push_back(next);
  }
  return frames;
}

}  // namespace

void run_rollout_fig3(const Options& opt, Result& result) {
  const double phi = seeded_angle(opt.seed, 25.0, 40.0);
  result.info.emplace_back("phi_deg", phi);
  Rollout r;
  const Cost setup = measure([&] {
    r.sim.emplace(load_fixture(opt.fixture));
    r.reference = fig3_reference(phi);
    r.window = r.sim->window_from_trajectory(r.reference);
    r.context.material =
        ad::Tensor::scalar(core::material_param_from_friction(phi));
    r.steps = r.reference.num_frames() - r.sim->features().window_size();
    warm_up([&] { (void)r.sim->rollout(r.window, r.steps, r.context); });
  });
  if (setup_only(opt, setup, result)) return;

  const std::vector<std::vector<double>> expected =
      r.sim->rollout(r.window, r.steps, r.context);
  long mismatched = 0;
  const OpTimes untraced_times =
      timed_loop(opt.trace ? opt.seconds / 2 : opt.seconds,
                 [&] {
                   ++result.attempted;
                   if (!bitwise_equal(
                           r.sim->rollout(r.window, r.steps, r.context),
                           expected))
                     ++mismatched;
                 });
  const Phase untraced = summarize(untraced_times, r.steps);
  add_end_to_end(result, untraced, setup);

  if (opt.trace) {
    Spans spans;
    ForwardCost cost;
    long edges = 0;
    auto& registry = obs::MetricsRegistry::global();
    registry.reset_prefix("core.");
    registry.reset_prefix("graph.");
    ExecWindow exec_window;
    exec_window.begin();
    obs::set_trace_enabled(true);
    const OpTimes times = timed_loop(opt.seconds / 2, [&] {
      ++result.attempted;
      if (!bitwise_equal(traced_rollout(r, spans, cost, edges), expected))
        ++mismatched;
    });
    obs::set_trace_enabled(false);
    const double steps = static_cast<double>(times.wall.size()) * r.steps;
    exec_window.end(result, steps);
    add_trace_overhead(result, untraced, summarize(times, r.steps));

    const double reuse = counter_value("graph.neighbor.reuse");
    const double rebuild = counter_value("graph.neighbor.rebuild");
    const auto forward_ms = spans.durations_ms("core.gns.forward");
    double forward_total_ms = 0.0;
    for (double ms : forward_ms) forward_total_ms += ms;
    result.add("graph.build_ms", "ms",
               median(spans.durations_ms("graph.build")));
    result.add("graph.edges", "count", static_cast<double>(edges) / steps);
    result.add("graph.reuse_ratio", "ratio",
               reuse + rebuild > 0.0 ? reuse / (reuse + rebuild) : 0.0);
    result.add("core.index_ms", "ms",
               median(spans.durations_ms("core.index")));
    result.add("core.features_ms", "ms",
               median(spans.durations_ms("core.features")));
    result.add("core.integrate_ms", "ms",
               median(spans.durations_ms("core.integrate")));
    result.add("core.step_ms", "ms", median(spans.durations_ms("core.step")));
    result.add("core.unaccounted_ms", "ms",
               median(spans.self_ms("core.step")));
    result.add("core.peak_rss_mb", "MiB", peak_rss_mb());
    result.add("core.gns.forward_ms", "ms", median(forward_ms));
    add_gns_phases(result);
    result.add("core.gns.gflop", "GFLOP", 1e-9 * cost.flops / steps);
    result.add("core.gns.flop_per_byte", "flop/B", cost.flops / cost.bytes);
    result.add("core.gns.gflops", "GFLOP/s",
               1e-9 * cost.flops / (1e-3 * forward_total_ms));
    measure_ad_layer(opt, spans, result);
    spans.write(opt.out_dir + "/trace-rollout_fig3.json");
  } else {
    result.metrics = result.reference;
  }

  // Output checks, after the timed phase.
  result.failed += mismatched;
  result.check(mismatched == 0, "rollout frames differ between operations");
  const double error = core::position_error(
      expected.back(), r.reference.frames.back(), r.sim->features().dim, 1.0);
  result.check(error < 0.05, "final-frame error " + std::to_string(error) +
                                 " of the domain is not under 5% (E1)");
}

}  // namespace perfbench
