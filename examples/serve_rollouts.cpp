// Rollout serving demo: load a checkpoint once, serve it concurrently.
//
// The deployment shape of the paper's speedup claim: a trained GNS is
// loaded once into a ModelRegistry and queried by many clients at once
// through a JobScheduler on the shared task executor. This program
//
//   1. trains-or-caches a small column-collapse GNS checkpoint,
//   2. registers it from disk,
//   3. fires N concurrent mixed-size rollout requests from client threads
//      (full-scene and half-scene windows, varying step counts),
//   4. prints the latency/throughput report and dumps ServerStats as
//      CSV + JSON for scripts/plot_results.py.
//
// Usage: serve_rollouts [requests=48] [workers=4] [clients=8]
//        serve_rollouts --listen <port> [workers=4]
// `workers` caps the number of concurrent rollout chains.
// Both modes accept --cache-dir <dir> anywhere on the line: it enables
// the content-addressed rollout cache (src/store) backed by that
// directory, so repeated identical requests are served from the mmap'd
// trajectory store instead of re-running the model. Without the flag,
// GNS_CACHE_DIR enables the same thing from the environment, and
// GNS_CACHE_BYTES caps the resident LRU budget (bytes) either way.
// GNS_EXEC_WORKERS sizes the executor that runs the rollout chains and
// each step's parallel kernels.
//
// --listen serves the same checkpoint over TCP (src/net wire protocol,
// 127.0.0.1 unless GNS_LISTEN_HOST overrides) until SIGINT/SIGTERM, then
// drains gracefully: in-flight jobs finish, replies flush, and the
// GNS_TRACE_FILE / GNS_METRICS_FILE observability dumps are written.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/datagen.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "net/net.hpp"
#include "obs/obs.hpp"
#include "serve/serve.hpp"
#include "store/store.hpp"
#include "util/timer.hpp"

using namespace gns;
using namespace gns::core;
using namespace gns::serve;

namespace {

// Small column-collapse model: cached on disk so re-runs serve instantly.
std::string ensure_checkpoint(const std::string& dir) {
  const std::string path = dir + "/serve_demo_model.bin";
  if (load_simulator(path)) return path;

  std::printf("[setup] building demo checkpoint (one-time)...\n");
  mpm::GranularSceneParams scene;
  scene.cells_x = 24;
  scene.cells_y = 12;
  scene.domain_width = 1.0;
  scene.domain_height = 0.5;
  io::Dataset ds = generate_column_dataset(scene, {30.0}, 0.15, 1.5,
                                           /*frames=*/24, /*substeps=*/10);

  FeatureConfig features;
  features.dim = 2;
  features.history = 4;
  features.connectivity_radius = 0.06;
  features.domain_lo = {0.0, 0.0};
  features.domain_hi = {1.0, 0.5};
  features.material_feature = true;

  GnsConfig model;
  model.latent = 16;
  model.mlp_hidden = 16;
  model.mlp_layers = 2;
  model.message_passing_steps = 2;

  LearnedSimulator sim = make_simulator(ds, features, model);
  TrainConfig tc;
  tc.steps = 120;  // a short polish pass; serving doesn't need accuracy
  tc.lr = 1e-3;
  train_gns(sim, ds, tc);
  save_simulator(sim, path);
  std::printf("[setup] checkpoint -> %s\n", path.c_str());
  return path;
}

RolloutRequest make_request(const LearnedSimulator& sim,
                            const io::Trajectory& traj, int particles,
                            int steps) {
  RolloutRequest req;
  req.model = "columns";
  req.steps = steps;
  req.material = traj.material_param;
  req.deadline_ms = 0.0;
  const int w = sim.features().window_size();
  const int dim = sim.features().dim;
  for (int t = 0; t < w; ++t) {
    const auto& full = traj.frames[t];
    req.window.emplace_back(full.begin(),
                            full.begin() + particles * dim);
  }
  return req;
}

// --cache-dir beats GNS_CACHE_DIR; either way GNS_CACHE_BYTES caps the
// resident budget. nullptr (caching off) when neither is given.
std::shared_ptr<store::RolloutCache> open_rollout_cache(
    const std::string& flag_dir) {
  if (flag_dir.empty()) return store::make_cache_from_env();
  store::CacheConfig config;
  config.dir = flag_dir;
  if (const char* bytes = std::getenv("GNS_CACHE_BYTES")) {
    const long long parsed = std::atoll(bytes);
    if (parsed > 0) config.byte_budget = static_cast<std::uint64_t>(parsed);
  }
  return std::make_shared<store::RolloutCache>(config);
}

void print_cache_report(const store::RolloutCache* cache) {
  if (cache == nullptr) {
    std::printf("cache         off  (--cache-dir or GNS_CACHE_DIR enables)\n");
    return;
  }
  auto& metrics = obs::MetricsRegistry::global();
  const std::string p = cache->config().metrics_prefix + ".";
  std::printf("cache         hit %llu  miss %llu  insert %llu  "
              "coalesced %llu  evicted %llu\n",
              static_cast<unsigned long long>(
                  metrics.counter(p + "hit").value()),
              static_cast<unsigned long long>(
                  metrics.counter(p + "miss").value()),
              static_cast<unsigned long long>(
                  metrics.counter(p + "insert").value()),
              static_cast<unsigned long long>(
                  metrics.counter(p + "singleflight_coalesced").value()),
              static_cast<unsigned long long>(
                  metrics.counter(p + "evictions").value()));
  std::printf("cache store   %zu entries resident, %.1f KiB (%s)\n",
              cache->resident_entries(),
              static_cast<double>(cache->resident_bytes()) / 1024.0,
              cache->config().dir.c_str());
}

// Signal-to-drain plumbing: the handler only flips an async-signal-safe
// flag; the main thread notices and runs the actual (lock-taking) drain.
std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

/// `serve_rollouts --listen <port>`: serve the checkpoint over TCP until a
/// SIGINT/SIGTERM triggers a graceful drain.
int run_listen_mode(int port, int workers, const std::string& cache,
                    const std::string& cache_dir_flag) {
  const std::string checkpoint = ensure_checkpoint(cache);
  auto registry = std::make_shared<ModelRegistry>();
  if (!registry->load("columns", checkpoint)) {
    std::fprintf(stderr, "failed to load %s\n", checkpoint.c_str());
    return 1;
  }
  SchedulerConfig sched_config;
  sched_config.workers = workers;
  sched_config.queue_capacity = 256;
  sched_config.cache = open_rollout_cache(cache_dir_flag);
  if (sched_config.cache)
    std::printf("[serve] rollout cache at %s (%zu entries warm)\n",
                sched_config.cache->config().dir.c_str(),
                sched_config.cache->resident_entries());
  JobScheduler scheduler(registry, sched_config);

  net::ServerConfig config;
  config.port = port;
  if (const char* host = std::getenv("GNS_LISTEN_HOST")) config.host = host;
  net::Server server(scheduler, config);
  if (!server.start()) return 1;
  std::printf("[serve] listening on %s:%d (model 'columns', %d workers)\n",
              config.host.c_str(), server.port(), workers);
  std::printf("[serve] Ctrl-C (SIGINT) or SIGTERM drains and exits\n");

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_signal.load(std::memory_order_relaxed) == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::printf("[serve] signal %d: draining...\n",
              g_signal.load(std::memory_order_relaxed));
  server.stop();  // finishes in-flight jobs, flushes replies + obs files
  scheduler.shutdown(/*drain=*/true);

  const StatsSnapshot snap = scheduler.stats().snapshot();
  std::printf("[serve] drained: %llu completed, %llu failed\n",
              static_cast<unsigned long long>(snap.completed),
              static_cast<unsigned long long>(snap.failed));
  print_cache_report(sched_config.cache.get());
  scheduler.stats().write_json(cache + "/serve_listen_stats.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gns::obs::install_from_env();

  // --cache-dir <dir> is recognized anywhere on the line, in both modes;
  // the remaining args keep their positional meaning.
  std::vector<std::string> args;
  std::string cache_dir_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cache-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--cache-dir requires a directory argument\n");
        return 2;
      }
      cache_dir_flag = argv[++i];
      continue;
    }
    args.push_back(arg);
  }

  const char* cache_env_early = std::getenv("GNS_BENCH_CACHE");
  if (!args.empty() && args[0] == "--listen") {
    if (args.size() < 2) {
      std::fprintf(stderr,
                   "usage: serve_rollouts --listen <port> [workers] "
                   "[--cache-dir <dir>]\n");
      return 2;
    }
    const int port = std::atoi(args[1].c_str());
    int listen_workers = args.size() > 2 ? std::atoi(args[2].c_str()) : 4;
    if (listen_workers < 1) listen_workers = 1;
    const std::string cache = cache_env_early ? cache_env_early : "bench_cache";
    std::filesystem::create_directories(cache);
    return run_listen_mode(port, listen_workers, cache, cache_dir_flag);
  }

  const int requests = !args.empty() ? std::atoi(args[0].c_str()) : 48;
  int workers = args.size() > 1 ? std::atoi(args[1].c_str()) : 4;
  const int clients = args.size() > 2 ? std::atoi(args[2].c_str()) : 8;
  if (workers < 4) workers = 4;  // acceptance shape: >= 4 chains

  const char* cache_env = std::getenv("GNS_BENCH_CACHE");
  const std::string cache = cache_env ? cache_env : "bench_cache";
  std::filesystem::create_directories(cache);

  // 1+2. Checkpoint on disk -> registry.
  const std::string checkpoint = ensure_checkpoint(cache);
  auto registry = std::make_shared<ModelRegistry>();
  if (!registry->load("columns", checkpoint)) {
    std::fprintf(stderr, "failed to load %s\n", checkpoint.c_str());
    return 1;
  }
  ModelRegistry::Handle sim = registry->get("columns");
  std::printf("[serve] model 'columns': %lld parameters\n",
              static_cast<long long>(sim->model().num_parameters()));

  // A seed trajectory for request windows (same scene family as training).
  mpm::GranularSceneParams scene;
  scene.cells_x = 24;
  scene.cells_y = 12;
  scene.domain_width = 1.0;
  scene.domain_height = 0.5;
  io::Dataset probe = generate_column_dataset(scene, {30.0}, 0.15, 1.5,
                                              /*frames=*/10, /*substeps=*/10);
  const io::Trajectory& traj = probe.trajectories[0];
  const int full_n = traj.num_particles;
  const int half_n = full_n / 2;

  // 3. Concurrent mixed-size load from client threads.
  SchedulerConfig sched_config;
  sched_config.workers = workers;
  sched_config.queue_capacity = 256;
  sched_config.cache = open_rollout_cache(cache_dir_flag);
  if (sched_config.cache)
    std::printf("[serve] rollout cache at %s (%zu entries warm)\n",
                sched_config.cache->config().dir.c_str(),
                sched_config.cache->resident_entries());
  JobScheduler scheduler(registry, sched_config);
  std::printf("[serve] %d requests from %d clients through %d workers\n",
              requests, clients, workers);

  std::vector<std::vector<JobTicket>> tickets(
      static_cast<std::size_t>(clients));
  Timer wall;
  std::vector<std::thread> client_threads;
  client_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (int i = c; i < requests; i += clients) {
        const bool big = i % 3 != 0;  // 2/3 full scene, 1/3 half scene
        const int steps = 6 + (i % 4) * 4;  // 6..18 frames
        tickets[static_cast<std::size_t>(c)].push_back(scheduler.submit(
            make_request(*sim, traj, big ? full_n : half_n, steps)));
      }
    });
  }
  for (auto& t : client_threads) t.join();

  int ok = 0, failed = 0;
  for (auto& per_client : tickets) {
    for (auto& ticket : per_client) {
      RolloutResult result = ticket.result.get();
      if (result.ok()) {
        ++ok;
      } else {
        ++failed;
        std::fprintf(stderr, "job %llu failed: %s (%s)\n",
                     static_cast<unsigned long long>(result.job_id),
                     to_string(result.status), result.error.c_str());
      }
    }
  }
  const double seconds = wall.seconds();

  // 4. Report + dumps.
  const StatsSnapshot snap = scheduler.stats().snapshot();
  std::printf("\n==== serving report ====\n");
  std::printf("requests      %d  (ok %d, failed %d)\n", requests, ok,
              failed);
  std::printf("wall time     %.2f s   throughput %.1f rollouts/s\n",
              seconds, snap.throughput(seconds));
  std::printf("peak queue    %d\n", snap.peak_queue_depth);
  std::printf("latency p50   %8.2f ms   (queue %8.2f, exec %8.2f)\n",
              snap.total_ms.quantile(0.50), snap.queue_ms.quantile(0.50),
              snap.exec_ms.quantile(0.50));
  std::printf("latency p95   %8.2f ms   (queue %8.2f, exec %8.2f)\n",
              snap.total_ms.quantile(0.95), snap.queue_ms.quantile(0.95),
              snap.exec_ms.quantile(0.95));
  std::printf("latency p99   %8.2f ms   (queue %8.2f, exec %8.2f)\n",
              snap.total_ms.quantile(0.99), snap.queue_ms.quantile(0.99),
              snap.exec_ms.quantile(0.99));
  {
    // Per-phase p50s from the serve.phase.* histograms (µs). In-process
    // serving has no wire, so decode/serialize/write stay empty.
    auto& metrics = obs::MetricsRegistry::global();
    const auto p50 = [&](const char* phase) {
      return metrics.histogram(std::string("serve.phase.") + phase)
          .snapshot()
          .quantile(0.50);
    };
    std::printf("phase p50     cache %.0f  queue %.0f  batch_wait %.0f  "
                "compute %.0f us\n",
                p50("cache_us"), p50("queue_us"), p50("batch_wait_us"),
                p50("compute_us"));
  }
  print_cache_report(sched_config.cache.get());

  scheduler.stats().write_latency_csv(cache + "/serve_latency.csv");
  scheduler.stats().write_json(
      cache + "/serve_stats.json",
      {{"workers", static_cast<double>(workers)},
       {"clients", static_cast<double>(clients)},
       {"wall_seconds", seconds},
       {"throughput_rps", snap.throughput(seconds)}});
  std::printf("wrote %s/serve_latency.csv and %s/serve_stats.json\n",
              cache.c_str(), cache.c_str());

  return failed == 0 ? 0 : 1;
}
