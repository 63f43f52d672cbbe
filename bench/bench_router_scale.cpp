// Router scaling: aggregate rollout throughput at 1 / 2 / 4 backends.
//
// The router's reason to exist is horizontal capacity: the same client
// load against a bigger fleet must finish proportionally faster. That is
// unmeasurable with raw backends on one box — every backend shares the
// same cores, so N backends compute no faster than one. The fleet shape
// that DOES scale on shared hardware is latency-bound backends (remote
// boxes, models waiting on accelerators), which this bench stages with
// the tests/net_fault.hpp proxy: each backend sits behind a proxy whose
// reply frames carry a fixed delay, and each backend admits only
// kBackendCapacity requests at once (the capacity its HELLO advertises).
// Throughput is then slots/latency — 2 slots with one backend, 8 with
// four — and the router's least-in-flight placement must actually reach
// the extra slots for the speedup to appear.
//
// Every request is also checked bitwise against a direct in-process
// rollout: load-balancing and failover plumbing must never change
// numbers.
//
// Usage: bench_router_scale [clients=8] [requests=48] [--small]
//   --small shrinks the reply delay so the whole sweep fits a CI minute;
//   the model is untrained small-scene either way (the bench measures the
//   serving fabric, not the model).
//
// Writes BENCH_router.json: per-fleet-size steps/s, speedup_2v1,
// speedup_4v1 (CI gates >= 3.0), failed, identical_outputs.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "net/net.hpp"
#include "net_fault.hpp"
#include "router/router.hpp"
#include "serve/serve.hpp"

using namespace gns;
using namespace gns::bench;
using namespace gns::serve;

namespace {

/// Concurrent admissions per backend — what its HELLO advertises and what
/// the router's placement honors. Slots, not threads: the backends are
/// latency-bound here.
constexpr int kBackendCapacity = 2;

LearnedSimulator small_simulator() {
  mpm::GranularSceneParams scene;
  scene.cells_x = 16;
  scene.cells_y = 8;
  scene.domain_width = 1.0;
  scene.domain_height = 0.5;
  io::Dataset ds = generate_column_dataset(scene, {30.0}, kColumnWidth,
                                           kColumnAspect, /*frames=*/12,
                                           /*substeps=*/10);
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 4;
  fc.connectivity_radius = 0.06;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 0.5};
  fc.material_feature = true;
  GnsConfig gc;
  gc.latent = 16;
  gc.mlp_hidden = 16;
  gc.mlp_layers = 2;
  gc.message_passing_steps = 2;
  return make_simulator(ds, fc, gc);
}

/// One latency-bound backend: server + scheduler over the shared registry,
/// fronted by a delay proxy. The router dials the PROXY.
struct Backend {
  Backend(const std::shared_ptr<ModelRegistry>& registry, int index,
          double reply_delay_ms) {
    SchedulerConfig sched;
    sched.workers = 1;
    sched.queue_capacity = 32;
    sched.stats_prefix = "bench_router_sched" + std::to_string(index);
    scheduler = std::make_unique<JobScheduler>(registry, sched);

    net::ServerConfig cfg;
    cfg.metrics_prefix = "bench_router_backend" + std::to_string(index);
    cfg.max_inflight_global = kBackendCapacity;
    server = std::make_unique<net::Server>(*scheduler, cfg);
    if (!server->start()) return;

    proxy = std::make_unique<net_fault::FaultProxy>(server->port());
    net_fault::FaultScript script;
    script.s2c_default = net_fault::FaultAction::delay(reply_delay_ms);
    if (!proxy->start()) {
      proxy.reset();
      return;
    }
    proxy->set_script(script);
  }

  [[nodiscard]] bool ok() const { return proxy != nullptr; }
  [[nodiscard]] int port() const { return proxy->port(); }

  void stop() {
    if (proxy) proxy->stop();
    if (server) server->stop();
  }

  std::unique_ptr<JobScheduler> scheduler;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net_fault::FaultProxy> proxy;
};

struct RunResult {
  double steps_per_sec = 0.0;
  int failed = 0;
  int mismatched = 0;
};

/// Drives `requests` rollouts from `clients` threads through a router over
/// `num_backends` backends; checks every reply against the references.
RunResult run_fleet(const std::shared_ptr<ModelRegistry>& registry,
                    const std::vector<RolloutRequest>& requests,
                    const std::vector<std::vector<std::vector<double>>>&
                        references,
                    int num_backends, int clients, double reply_delay_ms) {
  RunResult result;
  std::vector<std::unique_ptr<Backend>> backends;
  router::RouterConfig config;
  config.metrics_prefix = "bench_router_fleet" + std::to_string(num_backends);
  for (int b = 0; b < num_backends; ++b) {
    backends.push_back(
        std::make_unique<Backend>(registry, num_backends * 10 + b,
                                  reply_delay_ms));
    if (!backends.back()->ok()) {
      std::fprintf(stderr, "backend %d failed to start\n", b);
      result.failed = static_cast<int>(requests.size());
      return result;
    }
    config.backends.push_back({"127.0.0.1", backends.back()->port()});
  }
  router::Router router(config);
  if (!router.start()) {
    std::fprintf(stderr, "router failed to start\n");
    result.failed = static_cast<int>(requests.size());
    return result;
  }

  std::atomic<std::size_t> steps{0};
  std::atomic<int> failed{0};
  std::atomic<int> mismatched{0};
  Timer wall;
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      net::ClientConfig cfg;
      cfg.port = router.port();
      cfg.busy_max_retries = 1000;  // Busy is the fleet's admission queue
      cfg.busy_backoff_ms = 1.0;
      cfg.busy_backoff_max_ms = 8.0;
      net::Client client(cfg);
      const int n = static_cast<int>(requests.size());
      for (int i = c; i < n; i += clients) {
        const auto idx = static_cast<std::size_t>(i);
        const net::ClientResult r = client.rollout(requests[idx]);
        if (!r.ok()) {
          ++failed;
          std::fprintf(stderr, "request %d failed: %s\n", i,
                       r.transport_ok ? r.error.c_str()
                                      : r.transport_error.c_str());
          continue;
        }
        steps += r.frames.size();
        if (r.frames != references[idx % references.size()]) ++mismatched;
      }
    });
  }
  for (auto& t : client_threads) t.join();
  const double seconds = wall.seconds();

  router.stop();
  for (auto& backend : backends) backend->stop();

  result.steps_per_sec =
      seconds > 0.0 ? static_cast<double>(steps.load()) / seconds : 0.0;
  result.failed = failed.load();
  result.mismatched = mismatched.load();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  std::vector<int> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--small") {
      small = true;
    } else {
      positional.push_back(std::atoi(argv[i]));
    }
  }
  const int clients = !positional.empty() ? positional[0] : 8;
  const int requests_n = positional.size() > 1 ? positional[1] : 48;
  const double reply_delay_ms = small ? 15.0 : 40.0;

  print_header("router: fleet scaling, 1 -> 2 -> 4 latency-bound backends",
               "a fleet behind the router must scale aggregate throughput");
  std::printf("executor workers: %d (GNS_EXEC_WORKERS pins)\n",
              exec::Executor::global().workers());
  std::printf("load: %d requests from %d clients; backend capacity %d, "
              "reply delay %.0f ms/frame\n\n",
              requests_n, clients, kBackendCapacity, reply_delay_ms);

  auto registry = std::make_shared<ModelRegistry>();
  registry->put("columns", small_simulator());
  ModelRegistry::Handle sim = registry->get("columns");

  // Fixed request mix (3 step counts) + their in-process references for
  // the bitwise check.
  mpm::GranularSceneParams scene;
  scene.cells_x = 16;
  scene.cells_y = 8;
  scene.domain_width = 1.0;
  scene.domain_height = 0.5;
  io::Dataset probe = generate_column_dataset(scene, {30.0}, kColumnWidth,
                                              kColumnAspect, /*frames=*/10,
                                              /*substeps=*/10);
  const io::Trajectory& traj = probe.trajectories[0];
  const int w = sim->features().window_size();
  std::vector<RolloutRequest> requests;
  std::vector<std::vector<std::vector<double>>> references;
  for (int variant = 0; variant < 3; ++variant) {
    RolloutRequest req;
    req.model = "columns";
    req.steps = 3 + variant;
    req.material = traj.material_param;
    for (int t = 0; t < w; ++t) req.window.push_back(traj.frames[t]);
    SceneContext ctx;
    ctx.material = ad::Tensor::scalar(traj.material_param);
    references.push_back(
        sim->rollout(sim->window_from_trajectory(traj), req.steps, ctx));
    requests.push_back(std::move(req));
  }
  std::vector<RolloutRequest> load;
  for (int i = 0; i < requests_n; ++i)
    load.push_back(requests[static_cast<std::size_t>(i % 3)]);

  double steps_1 = 0.0, steps_2 = 0.0, steps_4 = 0.0;
  int failed = 0, mismatched = 0;
  for (const int fleet : {1, 2, 4}) {
    const RunResult r = run_fleet(registry, load, references, fleet,
                                  clients, reply_delay_ms);
    failed += r.failed;
    mismatched += r.mismatched;
    (fleet == 1 ? steps_1 : fleet == 2 ? steps_2 : steps_4) =
        r.steps_per_sec;
    std::printf("%d backend%s: %10.1f rollout-steps/s  "
                "(%d failed, %d mismatched)\n",
                fleet, fleet == 1 ? " " : "s", r.steps_per_sec, r.failed,
                r.mismatched);
  }

  const double speedup_2 = steps_1 > 0.0 ? steps_2 / steps_1 : 0.0;
  const double speedup_4 = steps_1 > 0.0 ? steps_4 / steps_1 : 0.0;
  print_rule();
  std::printf("speedup: 2 backends %.2fx, 4 backends %.2fx  "
              "(bar: 4 backends >= 3.0x)%s\n",
              speedup_2, speedup_4, speedup_4 >= 3.0 ? "" : "  BELOW BAR");
  const bool identical = mismatched == 0;
  if (!identical)
    std::printf("BITWISE MISMATCH: %d replies differed from direct "
                "rollouts\n",
                mismatched);

  write_json("router", {
    {"clients", static_cast<double>(clients)},
    {"requests", static_cast<double>(requests_n)},
    {"small", small ? 1.0 : 0.0},
    {"backend_capacity", static_cast<double>(kBackendCapacity)},
    {"reply_delay_ms", reply_delay_ms},
    {"backends_1_steps_per_sec", steps_1},
    {"backends_2_steps_per_sec", steps_2},
    {"backends_4_steps_per_sec", steps_4},
    {"speedup_2v1", speedup_2},
    {"speedup_4v1", speedup_4},
    {"failed", static_cast<double>(failed)},
    {"identical_outputs", identical ? 1.0 : 0.0},
  });
  return failed == 0 && identical ? 0 : 1;
}
