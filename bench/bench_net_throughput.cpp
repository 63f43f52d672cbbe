// Net front-end overhead: loopback TCP serving vs in-process scheduling.
//
// The serving chain this PR-set builds is only worth its keep if the wire
// does not eat the batched-dispatch throughput the scheduler earned. This
// bench drives the SAME request load twice through identically-configured
// JobSchedulers — once submitted in-process, once through C TCP clients on
// loopback — and reports rollout-steps/sec for both plus the ratio. The
// acceptance bar is net >= 0.9x in-process with 8 clients. Client-observed
// request latency percentiles (p50/p95/p99) come from the blocking
// client's send-to-terminal wall time, so they include encode/decode and
// both socket hops.
//
// Usage: bench_net_throughput [clients=8] [requests=64] [--small]
//   --small swaps the cached trained checkpoint for an untrained
//   small-scene model: same code path, seconds instead of minutes (CI).

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "util/csv.hpp"

using namespace gns;
using namespace gns::bench;
using namespace gns::serve;

namespace {

/// Untrained small-scene model for --small runs: the wire and scheduler
/// code paths are identical, only the per-step compute shrinks.
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

struct Load {
  std::shared_ptr<ModelRegistry> registry;
  ModelRegistry::Handle sim;
  std::vector<RolloutRequest> requests;
  std::size_t total_steps = 0;
};

Load build_load(int requests, bool small) {
  Load load;
  load.registry = std::make_shared<ModelRegistry>();
  load.registry->put("columns",
                     small ? small_simulator() : columns_simulator());
  load.sim = load.registry->get("columns");

  mpm::GranularSceneParams scene = granular_scene();
  if (small) {
    scene.cells_x = 16;
    scene.cells_y = 8;
  }
  io::Dataset probe =
      generate_column_dataset(scene, {30.0}, kColumnWidth, kColumnAspect,
                              /*frames=*/10, small ? 10 : kSubsteps);
  const io::Trajectory& traj = probe.trajectories[0];
  const int w = load.sim->features().window_size();
  const int dim = load.sim->features().dim;
  const int full_n = traj.num_particles;

  for (int i = 0; i < requests; ++i) {
    RolloutRequest req;
    req.model = "columns";
    req.steps = 4 + (i % 3) * 4;  // 4..12 frames, mixed
    req.material = material_param_from_friction(30.0);
    const int n = i % 4 == 0 ? full_n / 2 : full_n;  // mixed scene sizes
    for (int t = 0; t < w; ++t) {
      const auto& frame = traj.frames[t];
      req.window.emplace_back(frame.begin(), frame.begin() + n * dim);
    }
    load.total_steps += static_cast<std::size_t>(req.steps);
    load.requests.push_back(std::move(req));
  }
  return load;
}

SchedulerConfig scheduler_config(int requests, const std::string& prefix) {
  SchedulerConfig cfg;
  cfg.workers = std::max(
      2, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  cfg.queue_capacity = std::max(64, requests);
  cfg.max_batch = 4;  // the batched-dispatch baseline the net must hold
  cfg.batch_window_us = 200.0;
  cfg.stats_prefix = prefix;
  return cfg;
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Pulls one quantile sample (`name{quantile="0.5"} <v>`) out of a
/// Prometheus exposition body; 0.0 when absent (empty histogram).
double prom_quantile(const std::string& body, const std::string& name,
                     const char* quantile) {
  const std::string needle =
      name + "{quantile=\"" + quantile + "\"} ";
  std::size_t pos = 0;
  while ((pos = body.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || body[pos - 1] == '\n')
      return std::atof(body.c_str() + pos + needle.size());
    pos += needle.size();
  }
  return 0.0;
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
  const int requests = positional.size() > 1 ? positional[1] : 64;

  print_header("net: loopback TCP serving vs in-process scheduling",
               "the wire must not eat the batched-dispatch speedup");
  std::printf("executor workers: %d (GNS_EXEC_WORKERS pins)%s\n",
              exec::Executor::global().workers(),
              small ? "   [--small: untrained small-scene model]" : "");

  Load load = build_load(requests, small);
  std::printf("load: %d mixed-size requests (%zu rollout steps), "
              "%d clients\n\n",
              requests, load.total_steps, clients);

  // ---- In-process baseline: same scheduler config, direct submit ---------
  double inproc_steps_per_sec = 0.0;
  {
    JobScheduler scheduler(load.registry,
                           scheduler_config(requests, "bench_net_inproc"));
    Timer wall;
    std::vector<std::vector<JobTicket>> tickets(
        static_cast<std::size_t>(clients));
    std::vector<std::thread> submitters;
    for (int c = 0; c < clients; ++c) {
      submitters.emplace_back([&, c] {
        for (int i = c; i < requests; i += clients)
          tickets[static_cast<std::size_t>(c)].push_back(
              scheduler.submit(load.requests[static_cast<std::size_t>(i)]));
      });
    }
    for (auto& t : submitters) t.join();
    std::size_t steps = 0;
    int failed = 0;
    for (auto& per_client : tickets) {
      for (auto& ticket : per_client) {
        RolloutResult r = ticket.result.get();
        steps += r.frames.size();
        failed += r.ok() ? 0 : 1;
      }
    }
    const double seconds = wall.seconds();
    inproc_steps_per_sec =
        seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
    std::printf("in-process: %10.1f rollout-steps/s  (%d failed)\n",
                inproc_steps_per_sec, failed);
  }

  // ---- Loopback: same load through the TCP front-end ---------------------
  double net_steps_per_sec = 0.0;
  double net_req_per_sec = 0.0;
  std::vector<double> rtts;
  int net_failed = 0;
  std::uint64_t busy_retries = 0;
  bool scrape_ok = false;
  double phase_p50_sum_us = 0.0;
  {
    JobScheduler scheduler(load.registry,
                           scheduler_config(requests, "bench_net_loopback"));
    net::ServerConfig server_config;
    server_config.max_inflight_global = std::max(64, clients);
    server_config.metrics_prefix = "bench_net";
    net::Server server(scheduler, server_config);
    if (!server.start()) {
      std::fprintf(stderr, "server failed to start\n");
      return 1;
    }

    std::atomic<std::size_t> steps{0};
    std::atomic<int> failed{0};
    std::atomic<std::uint64_t> retries{0};
    std::vector<std::vector<double>> per_client_rtts(
        static_cast<std::size_t>(clients));
    Timer wall;
    std::vector<std::thread> client_threads;
    for (int c = 0; c < clients; ++c) {
      client_threads.emplace_back([&, c] {
        net::ClientConfig cfg;
        cfg.port = server.port();
        net::Client client(cfg);
        for (int i = c; i < requests; i += clients) {
          const net::ClientResult r =
              client.rollout(load.requests[static_cast<std::size_t>(i)]);
          if (r.ok()) {
            steps += r.frames.size();
          } else {
            ++failed;
            std::fprintf(stderr, "request %d failed: %s\n", i,
                         r.transport_ok ? r.error.c_str()
                                        : r.transport_error.c_str());
          }
          retries += static_cast<std::uint64_t>(r.busy_retries);
          per_client_rtts[static_cast<std::size_t>(c)].push_back(r.rtt_ms);
        }
      });
    }
    for (auto& t : client_threads) t.join();
    const double seconds = wall.seconds();

    // Scrape the hot server over the wire (the same kStatsRequest path a
    // production scraper would use) and sum the per-phase p50s: the server
    // should be able to account for most of the client-observed RTT.
    {
      net::ClientConfig cfg;
      cfg.port = server.port();
      net::Client scraper(cfg);
      const net::Client::StatsResult stats = scraper.stats();
      if (stats.ok()) {
        scrape_ok = true;
        for (const char* phase :
             {"decode", "cache", "queue", "batch_wait", "compute",
              "serialize", "write"}) {
          phase_p50_sum_us += prom_quantile(
              stats.reply.body,
              std::string("bench_net_loopback_phase_") + phase + "_us",
              "0.5");
        }
      } else {
        std::fprintf(stderr, "stats scrape failed: %s\n",
                     stats.transport_error.c_str());
      }
    }
    server.stop();

    net_steps_per_sec =
        seconds > 0.0 ? static_cast<double>(steps.load()) / seconds : 0.0;
    net_req_per_sec =
        seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
    net_failed = failed.load();
    busy_retries = retries.load();
    for (const auto& v : per_client_rtts)
      rtts.insert(rtts.end(), v.begin(), v.end());
    std::sort(rtts.begin(), rtts.end());
  }

  const double p50 = percentile(rtts, 0.50);
  const double p95 = percentile(rtts, 0.95);
  const double p99 = percentile(rtts, 0.99);
  const double ratio = inproc_steps_per_sec > 0.0
                           ? net_steps_per_sec / inproc_steps_per_sec
                           : 0.0;
  std::printf("loopback:   %10.1f rollout-steps/s  %8.1f req/s  "
              "(%d failed, %llu busy retries)\n",
              net_steps_per_sec, net_req_per_sec, net_failed,
              static_cast<unsigned long long>(busy_retries));
  std::printf("latency:    p50 %8.2f ms   p95 %8.2f ms   p99 %8.2f ms\n",
              p50, p95, p99);
  const double phase_sum_ms = phase_p50_sum_us * 1e-3;
  if (scrape_ok)
    std::printf("phases:     p50 sum %6.2f ms  (%.0f%% of rtt p50, "
                "from the wire scrape)\n",
                phase_sum_ms,
                p50 > 0.0 ? 100.0 * phase_sum_ms / p50 : 0.0);
  print_rule();
  std::printf("net / in-process rollout-steps/s: %.3fx  (bar: >= 0.9x)%s\n",
              ratio, ratio >= 0.9 ? "" : "  BELOW BAR");

  write_json("net", {
    {"clients", static_cast<double>(clients)},
    {"requests", static_cast<double>(requests)},
    {"small", small ? 1.0 : 0.0},
    {"inproc_steps_per_sec", inproc_steps_per_sec},
    {"net_steps_per_sec", net_steps_per_sec},
    {"net_req_per_sec", net_req_per_sec},
    {"net_over_inproc_ratio", ratio},
    {"rtt_p50_ms", p50},
    {"rtt_p95_ms", p95},
    {"rtt_p99_ms", p99},
    {"failed", static_cast<double>(net_failed)},
    {"busy_retries", static_cast<double>(busy_retries)},
    {"stats_scrape_ok", scrape_ok ? 1.0 : 0.0},
    {"phase_p50_sum_ms", phase_sum_ms},
    {"phase_sum_over_rtt_p50", p50 > 0.0 ? phase_sum_ms / p50 : 0.0},
  });
  return net_failed == 0 ? 0 : 1;
}
