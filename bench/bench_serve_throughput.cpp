// Serving throughput scaling vs worker count.
//
// The operational payoff of the paper's >165x forward-speedup claim is a
// simulator that can be loaded once and queried concurrently. This bench
// drives the serve subsystem with a fixed batch of rollout requests at
// worker counts 1..max and reports throughput + latency percentiles per
// configuration, so the worker-scaling curve is measurable on any machine.
// Scheduler workers cap concurrent rollout chains; the chains and each
// step's parallel kernels share the global executor, whose size
// GNS_EXEC_WORKERS pins for reproducible numbers (recorded in the JSON
// output as exec_workers).
//
// A third section sweeps the content-addressed rollout cache (src/store):
// a no-cache cold baseline, then request streams at 0% / 50% / 100%
// repeat rates through a fresh cache each, verifying every served frame
// stream bitwise against the cold run and reporting steps/sec speedups
// (BENCH_cache.json carries identical_outputs + the speedups CI gates on).
//
// Usage: bench_serve_throughput [requests=64] [--small] [--cache-only]
//   --small       untrained small-scene model: same code paths, CI-fast
//   --cache-only  skip the worker/batching sweeps, run just the cache sweep

#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "exec/executor.hpp"
#include "serve/serve.hpp"
#include "store/store.hpp"
#include "util/csv.hpp"

using namespace gns;
using namespace gns::bench;
using namespace gns::serve;

namespace {

/// Untrained small-scene model for --small runs: scheduler, cache, and
/// dispatch code paths are identical, only the per-step compute shrinks.
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
  io::Dataset probe = generate_column_dataset(
      scene, {30.0}, kColumnWidth, kColumnAspect,
      /*frames=*/10, small ? 10 : kSubsteps);
  const io::Trajectory& traj = probe.trajectories[0];
  const int w = load.sim->features().window_size();
  const int dim = load.sim->features().dim;
  const int full_n = traj.num_particles;

  for (int i = 0; i < requests; ++i) {
    RolloutRequest req;
    req.model = "columns";
    req.steps = 4 + (i % 3) * 4;                     // 4..12 frames
    req.material = material_param_from_friction(30.0);
    const int n = i % 4 == 0 ? full_n / 2 : full_n;  // mixed scene sizes
    for (int t = 0; t < w; ++t) {
      const auto& frame = traj.frames[t];
      req.window.emplace_back(frame.begin(), frame.begin() + n * dim);
    }
    load.requests.push_back(std::move(req));
  }
  return load;
}

// ---- Cache sweep helpers ---------------------------------------------------

using Frames = std::vector<std::vector<double>>;

/// `count` distinct requests of identical cost: same particle count and
/// step count (so steps/sec is comparable across repeat-rate streams),
/// keyed apart by a sub-physical material jitter — the content address
/// hashes double bit patterns, so one ulp is a different rollout.
std::vector<RolloutRequest> build_pool(const Load& load, int count) {
  const RolloutRequest* tmpl = &load.requests[0];
  for (const RolloutRequest& r : load.requests)
    if (r.window[0].size() > tmpl->window[0].size()) tmpl = &r;
  std::vector<RolloutRequest> pool;
  pool.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    RolloutRequest req = *tmpl;
    req.steps = 12;
    req.material += static_cast<double>(i) * 1e-12;
    pool.push_back(std::move(req));
  }
  return pool;
}

struct SweepRun {
  double steps_per_sec = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced = 0;
  bool identical = true;  ///< every result ok and bitwise == reference
};

/// Submits `stream` all at once (the concurrent-clients shape), waits,
/// and measures predicted rollout-steps/sec. With `reference` set, every
/// result is compared bitwise; with `capture` set, frames are saved as
/// the reference for later streams.
SweepRun run_stream(const std::shared_ptr<ModelRegistry>& registry,
                    const std::vector<RolloutRequest>& stream,
                    std::shared_ptr<gns::store::RolloutCache> cache,
                    const std::vector<Frames>* reference,
                    std::vector<Frames>* capture) {
  SchedulerConfig cfg;
  cfg.workers = std::max(
      2, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  cfg.queue_capacity = std::max(64, static_cast<int>(stream.size()));
  cfg.cache = cache;
  JobScheduler scheduler(registry, cfg);

  Timer wall;
  std::vector<JobTicket> tickets;
  tickets.reserve(stream.size());
  for (const RolloutRequest& req : stream)
    tickets.push_back(scheduler.submit(req));

  SweepRun run;
  std::size_t total_steps = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    RolloutResult result = tickets[i].result.get();
    if (!result.ok()) {
      run.identical = false;
      continue;
    }
    total_steps += result.frames.size();
    if (reference != nullptr && (*reference)[i] != result.frames)
      run.identical = false;
    if (capture != nullptr) (*capture)[i] = std::move(result.frames);
  }
  const double seconds = wall.seconds();
  run.steps_per_sec =
      seconds > 0.0 ? static_cast<double>(total_steps) / seconds : 0.0;

  if (cache != nullptr) {
    auto& metrics = obs::MetricsRegistry::global();
    const std::string p = cache->config().metrics_prefix + ".";
    run.hits = metrics.counter(p + "hit").value();
    run.misses = metrics.counter(p + "miss").value();
    run.coalesced = metrics.counter(p + "singleflight_coalesced").value();
  }
  return run;
}

/// Cold no-cache baseline, then 0/50/100% repeat-rate streams through a
/// fresh cache each, then the 100% stream again through a *reopened*
/// cache (pure mmap hits, zero computes). Emits BENCH_cache.json.
int run_cache_sweep(const Load& load, int requests, bool small) {
  print_header("serve: content-addressed rollout cache sweep",
               "repeat requests should cost a read, not a rollout");
  const int pool_size = std::max(2, requests);
  const std::vector<RolloutRequest> pool = build_pool(load, pool_size);
  std::printf(
      "%d same-cost requests (12 steps each), submitted concurrently;\n"
      "repeatN = a stream where N%% of requests re-ask an earlier one\n\n",
      pool_size);

  // Cold baseline doubles as the bitwise reference for every cached run.
  std::vector<Frames> reference(pool.size());
  const SweepRun cold =
      run_stream(load.registry, pool, nullptr, nullptr, &reference);
  std::printf("%10s %14s %6s %6s %10s %10s %9s\n", "stream", "steps/s",
              "hit", "miss", "coalesced", "identical", "speedup");
  std::printf("%10s %14.1f %6s %6s %10s %10s %9s\n", "cold",
              cold.steps_per_sec, "-", "-", "-",
              cold.identical ? "yes" : "NO", "1.00x");

  const std::string sweep_root = cache_dir() + "/cache_sweep";
  std::filesystem::remove_all(sweep_root);

  bool all_identical = cold.identical;
  std::vector<std::pair<std::string, double>> fields;
  fields.emplace_back("cache_requests", static_cast<double>(pool_size));
  fields.emplace_back("small", small ? 1.0 : 0.0);
  fields.emplace_back("cold_steps_per_sec", cold.steps_per_sec);

  auto report = [&](const std::string& name, const SweepRun& run) {
    const double speedup =
        cold.steps_per_sec > 0.0 ? run.steps_per_sec / cold.steps_per_sec
                                 : 0.0;
    std::printf("%10s %14.1f %6llu %6llu %10llu %10s %8.2fx\n", name.c_str(),
                run.steps_per_sec, static_cast<unsigned long long>(run.hits),
                static_cast<unsigned long long>(run.misses),
                static_cast<unsigned long long>(run.coalesced),
                run.identical ? "yes" : "NO", speedup);
    all_identical = all_identical && run.identical;
    fields.emplace_back(name + "_steps_per_sec", run.steps_per_sec);
    fields.emplace_back(name + "_speedup", speedup);
  };

  for (const int rate : {0, 50, 100}) {
    const int distinct = std::max(1, pool_size * (100 - rate) / 100);
    std::vector<RolloutRequest> stream;
    std::vector<Frames> stream_ref;
    for (int i = 0; i < pool_size; ++i) {
      stream.push_back(pool[static_cast<std::size_t>(i % distinct)]);
      stream_ref.push_back(reference[static_cast<std::size_t>(i % distinct)]);
    }
    gns::store::CacheConfig cc;
    cc.dir = sweep_root + "/r" + std::to_string(rate);
    cc.metrics_prefix = "bench.cache.r" + std::to_string(rate);
    auto cache = std::make_shared<gns::store::RolloutCache>(cc);
    report("repeat" + std::to_string(rate),
           run_stream(load.registry, stream, cache, &stream_ref, nullptr));
  }

  // Restart shape: a fresh process reopens the r100 store and serves the
  // same stream without a single compute.
  {
    std::vector<RolloutRequest> stream(
        static_cast<std::size_t>(pool_size), pool[0]);
    std::vector<Frames> stream_ref(static_cast<std::size_t>(pool_size),
                                   reference[0]);
    gns::store::CacheConfig cc;
    cc.dir = sweep_root + "/r100";
    cc.metrics_prefix = "bench.cache.warm";
    auto cache = std::make_shared<gns::store::RolloutCache>(cc);
    report("warm100",
           run_stream(load.registry, stream, cache, &stream_ref, nullptr));
  }

  print_rule();
  std::printf(
      "note: repeat0 pays the cache's append+fsync on every miss — the\n"
      "worst case. repeat100 coalesces concurrent identical requests onto\n"
      "one compute; warm100 reopens the store and serves pure mmap hits.\n");
  fields.emplace_back("identical_outputs", all_identical ? 1.0 : 0.0);
  write_json("cache", fields);
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 64;
  bool small = false;
  bool cache_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small")
      small = true;
    else if (arg == "--cache-only")
      cache_only = true;
    else
      requests = std::atoi(arg.c_str());
  }
  print_header("serve: rollout throughput vs worker count",
               "operational form of the >165x forward-speedup claim");
  const int exec_workers = exec::Executor::global().workers();
  std::printf("executor workers: %d (GNS_EXEC_WORKERS pins)\n",
              exec_workers);

  Load load = build_load(requests, small);
  std::printf("load: %d mixed-size requests, model '%s'%s\n\n", requests,
              "columns",
              small ? "   [--small: untrained small-scene model]" : "");

  if (!cache_only) {
    std::printf("%8s %14s %12s %12s %12s %12s\n", "workers", "rollouts/s",
                "p50 ms", "p95 ms", "p99 ms", "speedup");

    const int max_workers = std::max(
        4, static_cast<int>(std::thread::hardware_concurrency()));
    CsvWriter csv(cache_dir() + "/serve_throughput.csv",
                  {"workers", "throughput_rps", "p50_ms", "p95_ms", "p99_ms"});
    double base_rps = 0.0;
    std::vector<std::pair<std::string, double>> json_fields;
    for (int workers = 1; workers <= max_workers; workers *= 2) {
      SchedulerConfig sweep_cfg;
      sweep_cfg.workers = workers;
      sweep_cfg.queue_capacity = requests;
      JobScheduler scheduler(load.registry, sweep_cfg);
      Timer wall;
      std::vector<JobTicket> tickets;
      tickets.reserve(load.requests.size());
      for (const RolloutRequest& req : load.requests)
        tickets.push_back(scheduler.submit(req));
      int failed = 0;
      for (auto& t : tickets) failed += t.result.get().ok() ? 0 : 1;
      const double seconds = wall.seconds();

      const StatsSnapshot snap = scheduler.stats().snapshot();
      const double rps = snap.throughput(seconds);
      if (workers == 1) base_rps = rps;
      const double p50 = snap.total_ms.quantile(0.50);
      const double p95 = snap.total_ms.quantile(0.95);
      const double p99 = snap.total_ms.quantile(0.99);
      std::printf("%8d %14.1f %12.2f %12.2f %12.2f %11.2fx%s\n", workers,
                  rps, p50, p95, p99, base_rps > 0 ? rps / base_rps : 0.0,
                  failed ? "  FAILURES!" : "");
      csv.row({static_cast<double>(workers), rps, p50, p95, p99});
      const std::string prefix = "w" + std::to_string(workers);
      json_fields.emplace_back(prefix + "_throughput_rps", rps);
      json_fields.emplace_back(prefix + "_p95_ms", p95);
    }
    print_rule();
    std::printf(
        "note: scheduler workers only cap concurrent rollout chains; the\n"
        "chains and each step's parallel kernels share the executor's %d\n"
        "workers, so scaling saturates once the chains keep them busy.\n",
        exec_workers);

    // ---- Batched vs sequential dispatch -----------------------------------
    // One block-diagonal forward per step for up to max_batch coalesced jobs
    // amortizes per-op overhead (graph build, dispatch, small-matrix matmul
    // ramp-up) across members. The honest throughput unit here is predicted
    // rollout-steps/sec (jobs/sec would reward short jobs); batch_size
    // percentiles come straight from the serve.batch_size histogram.
    print_rule();
    const int batch_workers =
        std::max(1, std::min(2, static_cast<int>(
                                    std::thread::hardware_concurrency())));
    std::printf(
        "batched dispatch: rollout-steps/s vs max_batch (workers=%d,\n"
        "window=200us, queue pre-filled so coalescing is maximal)\n\n",
        batch_workers);
    std::printf("%9s %14s %12s %11s %11s %11s %12s\n", "max_batch", "steps/s",
                "p95 ms", "batch mean", "batch p50", "batch max", "speedup");

    CsvWriter batched_csv(
        cache_dir() + "/serve_batched_throughput.csv",
        {"max_batch", "steps_per_sec", "p95_ms", "batch_mean", "batch_p50",
         "batch_max"});
    double base_steps_per_sec = 0.0;
    for (const int max_batch : {1, 2, 4, 8}) {
      SchedulerConfig cfg;
      cfg.workers = batch_workers;
      cfg.queue_capacity = requests;
      cfg.max_batch = max_batch;
      cfg.batch_window_us = 200.0;
      JobScheduler scheduler(load.registry, cfg);

      scheduler.pause();  // fill the queue first: measure steady-state batching
      std::vector<JobTicket> tickets;
      tickets.reserve(load.requests.size());
      for (const RolloutRequest& req : load.requests)
        tickets.push_back(scheduler.submit(req));
      Timer wall;
      scheduler.resume();
      std::size_t total_steps = 0;
      int failed = 0;
      for (auto& t : tickets) {
        RolloutResult r = t.result.get();
        total_steps += r.frames.size();
        failed += r.ok() ? 0 : 1;
      }
      const double seconds = wall.seconds();
      const double steps_per_sec =
          seconds > 0.0 ? static_cast<double>(total_steps) / seconds : 0.0;
      if (max_batch == 1) base_steps_per_sec = steps_per_sec;

      const StatsSnapshot snap = scheduler.stats().snapshot();
      const double p95 = snap.total_ms.quantile(0.95);
      const double b_mean = snap.batch_size.mean();
      const double b_p50 = snap.batch_size.quantile(0.50);
      const double b_max = snap.batch_size.max();
      std::printf("%9d %14.1f %12.2f %11.2f %11.2f %11.2f %11.2fx%s\n",
                  max_batch, steps_per_sec, p95, b_mean, b_p50, b_max,
                  base_steps_per_sec > 0 ? steps_per_sec / base_steps_per_sec
                                         : 0.0,
                  failed ? "  FAILURES!" : "");
      batched_csv.row({static_cast<double>(max_batch), steps_per_sec, p95,
                       b_mean, b_p50, b_max});
      const std::string prefix = "b" + std::to_string(max_batch);
      json_fields.emplace_back(prefix + "_steps_per_sec", steps_per_sec);
      json_fields.emplace_back(prefix + "_batch_mean", b_mean);
      json_fields.emplace_back(prefix + "_batch_max", b_max);
    }
    print_rule();
    std::printf(
        "note: batching wins come from amortizing per-step fixed costs; on\n"
        "few-core machines (or GNS_EXEC_WORKERS=1) expect modest gains, on\n"
        ">=4 cores max_batch=8 should clear 1.5x over max_batch=1.\n");

    json_fields.emplace_back("requests", static_cast<double>(requests));
    write_json("serve_throughput", json_fields);
  }  // !cache_only

  return run_cache_sweep(load, requests, small);
}
