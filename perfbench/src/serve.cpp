// serve_wire: loopback TCP requests to an in-process net::Server +
// serve::JobScheduler set up like `serve_rollouts --listen` (no cache, no
// batching) with 2 scheduler workers.
//
// Open loop: request i is due at start + i / kRate whatever happened to
// earlier requests, and its latency runs from its due time to its last
// chunk, so a stall also charges the requests queued behind it. The mix is
// three small requests (half column, 4 steps) to one large (full column,
// 12 steps), in a seed-shuffled order. At 2.5 requests/s the executor's
// two workers were busy 15-23% of the time (exec.busy_ratio of traced runs
// on a 4-vCPU VM); closed-loop and half-load serving were too unsteady to
// measure.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/datagen.hpp"
#include "net/net.hpp"
#include "obs/obs.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace gns;

namespace {

constexpr double kRate = 2.5;  ///< requests per second
constexpr int kSmallSteps = 4;
constexpr int kLargeSteps = 12;

struct Served {
  std::shared_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::JobScheduler> scheduler;
  std::unique_ptr<net::Server> server;
  serve::RolloutRequest small, large;
  std::vector<std::vector<double>> small_expected, large_expected;

  void stop() {
    if (server) server->stop();
    server.reset();
    scheduler.reset();
  }
};

serve::RolloutRequest make_request(const io::Trajectory& traj, int window,
                                   int particles, int steps) {
  serve::RolloutRequest req;
  req.model = "columns";
  req.steps = steps;
  req.material = traj.material_param;
  for (int t = 0; t < window; ++t)
    req.window.emplace_back(traj.frames[t].begin(),
                            traj.frames[t].begin() + 2 * particles);
  return req;
}

std::vector<std::vector<double>> in_process(const core::LearnedSimulator& sim,
                                            const serve::RolloutRequest& req) {
  core::Window window;
  for (const auto& frame : req.window)
    window.push_back(core::frame_to_tensor(frame, 2));
  core::SceneContext context;
  context.material = ad::Tensor::scalar(req.material);
  return sim.rollout(window, req.steps, context);
}

struct Sample {
  bool large = false;
  double due_s = 0.0, send_s = 0.0, done_s = 0.0;
  bool ok = false;
  double server_us = 0.0;  ///< server-side phase sum from the StatusReply
};

/// Runs the open loop for `seconds`; returns one sample per request.
std::vector<Sample> open_loop(Served& s, double seconds, std::uint64_t seed,
                              Spans* spans, std::uint64_t trace_base) {
  const int n = std::max(1, static_cast<int>(std::floor(seconds * kRate)));
  std::vector<Sample> samples(n);
  Rng rng(seed * 7919 + 17);
  for (int block = 0; block < n; block += 4) {
    const int large_at = static_cast<int>(rng.next() % 4);
    if (block + large_at < n) samples[block + large_at].large = true;
  }
  const int clients = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  std::atomic<int> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto at = [&start](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  auto client_loop = [&] {
    net::ClientConfig cfg;
    cfg.port = s.server->port();
    net::Client client(cfg);
    for (int i; (i = next.fetch_add(1)) < n;) {
      Sample& x = samples[i];
      x.due_s = i / kRate;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(x.due_s)));
      serve::RolloutRequest req = x.large ? s.large : s.small;
      req.trace_id = spans ? trace_base + i + 1 : 0;
      const std::int64_t send_ns = now_ns();
      x.send_s = at(Clock::now());
      const net::ClientResult res = client.rollout(req);
      x.done_s = at(Clock::now());
      if (spans)
        spans->record("net.client.request", send_ns, now_ns(), res.trace_id);
      x.server_us = res.phases.total_us();
      x.ok = res.ok() &&
             bitwise_equal(res.frames, x.large ? s.large_expected
                                               : s.small_expected);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop);
  for (auto& t : threads) t.join();
  return samples;
}

/// Summary of one open-loop phase that took `cpu_s` process CPU seconds.
/// A request's rate is its GNS steps / its latency; a failed request counts
/// as over any latency limit (infinite latency, zero steps per second) and
/// serves no steps. At the fast end the rate is set by the small requests.
Phase loop_phase(const std::vector<Sample>& samples, double cpu_s,
                 Result& result) {
  std::vector<double> latency_ms, rate;
  double steps = 0.0;
  for (const auto& x : samples) {
    ++result.attempted;
    if (!x.ok) ++result.failed;
    const double latency = x.done_s - x.due_s;
    const double n = x.large ? kLargeSteps : kSmallSteps;
    latency_ms.push_back(x.ok ? 1e3 * latency : INFINITY);
    rate.push_back(x.ok ? n / latency : 0.0);
    if (x.ok) steps += n;
  }
  auto finite = [](double v) { return std::isfinite(v) ? v : 1e12; };
  Phase p;
  p.steps_per_s = quantile(rate, kFastQuantile);
  p.cpu_steps_per_s = steps / cpu_s;
  p.p50_ms = finite(median(latency_ms));
  p.p90_ms = finite(quantile(latency_ms, 0.9));
  p.samples = static_cast<long>(samples.size());
  return p;
}

double late_p99_ms(const std::vector<Sample>& samples) {
  std::vector<double> late;
  for (const auto& x : samples) late.push_back(1e3 * (x.send_s - x.due_s));
  return quantile(late, 0.99);
}

}  // namespace

void run_serve_wire(const Options& opt, Result& result) {
  const double phi = seeded_angle(opt.seed, 25.0, 40.0);
  result.info.emplace_back("phi_deg", phi);
  Served s;
  const Cost setup = measure([&] {
    s.registry = std::make_shared<serve::ModelRegistry>();
    if (!s.registry->load("columns", opt.fixture))
      throw std::runtime_error("cannot load checkpoint " + opt.fixture);
    const int window = s.registry->get("columns")->features().window_size();
    const io::Trajectory seed_frames = fig3_reference(phi, window);
    const int full = seed_frames.num_particles;
    s.small = make_request(seed_frames, window, full / 2, kSmallSteps);
    s.large = make_request(seed_frames, window, full, kLargeSteps);
    serve::SchedulerConfig sched;
    sched.workers = 2;
    sched.queue_capacity = 256;
    s.scheduler = std::make_unique<serve::JobScheduler>(s.registry, sched);
    s.server =
        std::make_unique<net::Server>(*s.scheduler, net::ServerConfig{});
    if (!s.server->start()) throw std::runtime_error("server did not start");
    net::ClientConfig cfg;
    cfg.port = s.server->port();
    net::Client client(cfg);
    warm_up([&] {
      (void)client.rollout(s.small);
      (void)client.rollout(s.large);
    });
  });
  if (setup_only(opt, setup, result)) {
    s.stop();
    return;
  }
  const auto sim = s.registry->get("columns");
  s.small_expected = in_process(*sim, s.small);
  s.large_expected = in_process(*sim, s.large);

  std::vector<Sample> plain;
  const Cost plain_cost = measure([&] {
    plain = open_loop(s, opt.trace ? opt.seconds / 2 : opt.seconds, opt.seed,
                      nullptr, 0);
  });
  const Phase untraced = loop_phase(plain, plain_cost.cpu, result);
  add_end_to_end(result, untraced, setup);
  result.info.emplace_back("late_p99_ms", late_p99_ms(plain));

  if (opt.trace) {
    Spans spans;
    auto& registry = obs::MetricsRegistry::global();
    registry.reset_prefix("serve.");
    registry.reset_prefix("core.");
    ExecWindow exec_window;
    exec_window.begin();
    obs::set_trace_enabled(true);
    std::vector<Sample> traced;
    const Cost traced_cost = measure([&] {
      traced = open_loop(s, opt.seconds / 2, opt.seed, &spans, opt.seed << 32);
    });
    obs::set_trace_enabled(false);
    double steps = 0.0;
    std::vector<double> client_ms;
    for (const auto& x : traced) {
      if (!x.ok) continue;
      steps += x.large ? kLargeSteps : kSmallSteps;
      client_ms.push_back(1e3 * (x.done_s - x.send_s) - 1e-3 * x.server_us);
    }
    exec_window.end(result, std::max(1.0, steps));
    add_trace_overhead(result, untraced,
                       loop_phase(traced, traced_cost.cpu, result));
    result.add("serve.queue_us", "us",
               histogram_quantile("serve.phase.queue_us", 0.5));
    result.add("serve.compute_us", "us",
               histogram_quantile("serve.phase.compute_us", 0.5));
    result.add("net.decode_us", "us",
               histogram_quantile("serve.phase.decode_us", 0.5));
    result.add("net.serialize_us", "us",
               histogram_quantile("serve.phase.serialize_us", 0.5));
    result.add("net.write_us", "us",
               histogram_quantile("serve.phase.write_us", 0.5));
    result.add("net.client_ms", "ms", median(client_ms));
    result.add("net.late_ms", "ms", late_p99_ms(traced));
    add_gns_phases(result);
    spans.write(opt.out_dir + "/trace-serve_wire.json");
  } else {
    result.metrics = result.reference;
  }
  s.stop();

  result.check(result.failed == 0,
               "a request failed or its reply differs from an in-process "
               "rollout");
}

}  // namespace perfbench
