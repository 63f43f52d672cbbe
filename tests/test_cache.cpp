// Rollout cache integration: cache hits bitwise-identical to live rollouts
// (in-process and over the wire), prefix hits, single-flight coalescing in
// the scheduler, hot-reload invalidation (a reloaded model never serves
// stale frames), and restart survival through the mmap'd store.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "store/store.hpp"

namespace gns::serve {
namespace {

using core::FeatureConfig;
using core::GnsConfig;
using core::LearnedSimulator;
using core::SceneContext;

namespace fs = std::filesystem;

/// A scheduler config with every other field at its default.
SchedulerConfig sched_config(int workers, int queue_capacity) {
  SchedulerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_capacity;
  return cfg;
}

io::Dataset small_dataset() {
  io::Dataset ds;
  io::Trajectory traj;
  traj.dim = 2;
  traj.num_particles = 6;
  traj.domain_lo = {0.0, 0.0};
  traj.domain_hi = {1.0, 1.0};
  traj.material_param = 0.6;
  Rng rng(7);
  std::vector<double> base(12);
  for (auto& v : base) v = rng.uniform(0.3, 0.7);
  for (int t = 0; t < 12; ++t) {
    std::vector<double> frame(12);
    for (int i = 0; i < 12; ++i) frame[i] = base[i] + 0.002 * t * (i % 3);
    traj.add_frame(std::move(frame));
  }
  ds.trajectories.push_back(std::move(traj));
  return ds;
}

LearnedSimulator make_small_sim(std::uint64_t seed = 42) {
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.4;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 1.0};
  fc.material_feature = true;
  GnsConfig gc;
  gc.latent = 8;
  gc.mlp_hidden = 8;
  gc.mlp_layers = 1;
  gc.message_passing_steps = 2;
  return core::make_simulator(small_dataset(), fc, gc, seed);
}

RolloutRequest small_request(const LearnedSimulator& sim, int steps) {
  io::Dataset ds = small_dataset();
  const io::Trajectory& traj = ds.trajectories[0];
  RolloutRequest req;
  req.model = "m";
  req.steps = steps;
  req.material = traj.material_param;
  const int w = sim.features().window_size();
  for (int t = 0; t < w; ++t) req.window.push_back(traj.frames[t]);
  return req;
}

/// Direct in-process rollout of the same request: the bitwise reference.
std::vector<std::vector<double>> direct_rollout(const LearnedSimulator& sim,
                                                int steps) {
  io::Dataset ds = small_dataset();
  SceneContext ctx;
  ctx.material = ad::Tensor::scalar(ds.trajectories[0].material_param);
  return sim.rollout(sim.window_from_trajectory(ds.trajectories[0]), steps,
                     ctx);
}

class CacheServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "test_cache_dir_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::shared_ptr<store::RolloutCache> make_cache(
      const std::string& prefix) const {
    store::CacheConfig cfg;
    cfg.dir = dir_;
    cfg.metrics_prefix = prefix;
    return std::make_shared<store::RolloutCache>(cfg);
  }

  std::string dir_;
};

TEST_F(CacheServeTest, HitIsBitwiseIdenticalToLiveRollout) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");

  SchedulerConfig cfg = sched_config(2, 32);
  cfg.stats_prefix = "cache_hit_test";
  cfg.cache = make_cache("cache_hit_test.cache");
  JobScheduler scheduler(registry, cfg);

  auto cold = scheduler.submit(small_request(*sim, 6));
  RolloutResult first = cold.result.get();
  ASSERT_EQ(first.status, JobStatus::Ok);
  EXPECT_FALSE(first.cached);
  // The live path stays bitwise-equal to the one-shot simulator API ...
  EXPECT_EQ(first.frames, direct_rollout(*sim, 6));

  auto warm = scheduler.submit(small_request(*sim, 6));
  RolloutResult second = warm.result.get();
  ASSERT_EQ(second.status, JobStatus::Ok);
  EXPECT_TRUE(second.cached);
  // ... and the cached path is bitwise the live path.
  EXPECT_EQ(second.frames, first.frames);
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("cache_hit_test.cache.hit")
                .value(),
            1u);
}

TEST_F(CacheServeTest, PrefixHitTruncatesBitwise) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");

  SchedulerConfig cfg = sched_config(2, 32);
  cfg.stats_prefix = "cache_prefix_test";
  cfg.cache = make_cache("cache_prefix_test.cache");
  JobScheduler scheduler(registry, cfg);

  RolloutResult full = scheduler.submit(small_request(*sim, 8)).result.get();
  ASSERT_EQ(full.status, JobStatus::Ok);

  RolloutResult prefix = scheduler.submit(small_request(*sim, 5)).result.get();
  ASSERT_EQ(prefix.status, JobStatus::Ok);
  EXPECT_TRUE(prefix.cached);
  ASSERT_EQ(prefix.frames.size(), 5u);
  for (std::size_t s = 0; s < 5; ++s)
    EXPECT_EQ(prefix.frames[s], full.frames[s]);
  // A prefix hit is exactly what a live 5-step rollout would produce.
  EXPECT_EQ(prefix.frames, direct_rollout(*sim, 5));

  // Longer than stored: miss, computes live, then supersedes in the store.
  RolloutResult longer = scheduler.submit(small_request(*sim, 10)).result.get();
  ASSERT_EQ(longer.status, JobStatus::Ok);
  EXPECT_FALSE(longer.cached);
  RolloutResult again = scheduler.submit(small_request(*sim, 10)).result.get();
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.frames, longer.frames);
}

TEST_F(CacheServeTest, HitsServeWhileWorkersArePaused) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");

  SchedulerConfig cfg = sched_config(1, 8);
  cfg.stats_prefix = "cache_paused_test";
  cfg.cache = make_cache("cache_paused_test.cache");
  JobScheduler scheduler(registry, cfg);
  RolloutResult live = scheduler.submit(small_request(*sim, 4)).result.get();
  ASSERT_EQ(live.status, JobStatus::Ok);

  // With the worker pool paused, only the cache can answer — proving hits
  // never touch a worker.
  scheduler.pause();
  auto ticket = scheduler.submit(small_request(*sim, 4));
  ASSERT_EQ(ticket.result.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  RolloutResult hit = ticket.result.get();
  EXPECT_EQ(hit.status, JobStatus::Ok);
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.frames, live.frames);
  scheduler.resume();
}

TEST_F(CacheServeTest, SingleFlightCoalescesConcurrentIdenticalRequests) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");

  SchedulerConfig cfg = sched_config(2, 32);
  cfg.stats_prefix = "cache_flight_test";
  cfg.cache = make_cache("cache_flight_test.cache");
  JobScheduler scheduler(registry, cfg);

  // Pause so all submissions land before any compute: one leader queues,
  // the rest join its flight.
  scheduler.pause();
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 4; ++i)
    tickets.push_back(scheduler.submit(small_request(*sim, 6)));
  EXPECT_EQ(scheduler.queue_depth(), 1);  // one compute for four requests
  scheduler.resume();

  std::vector<RolloutResult> results;
  for (auto& t : tickets) results.push_back(t.result.get());
  int cached = 0;
  for (const RolloutResult& r : results) {
    ASSERT_EQ(r.status, JobStatus::Ok);
    ASSERT_EQ(r.frames.size(), 6u);
    EXPECT_EQ(r.frames, results.front().frames);  // all bitwise equal
    if (r.cached) ++cached;
  }
  EXPECT_EQ(cached, 3);  // three followers, one live leader
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("cache_flight_test.cache.singleflight_coalesced")
                .value(),
            3u);
}

TEST_F(CacheServeTest, HotReloadNeverServesStaleFrames) {
  const std::string model_path = "test_cache_reload_model.bin";
  core::save_simulator(make_small_sim(/*seed=*/1), model_path);

  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->load("m", model_path));
  ModelRegistry::Handle sim = registry->get("m");

  SchedulerConfig cfg = sched_config(2, 32);
  cfg.stats_prefix = "cache_reload_test";
  cfg.cache = make_cache("cache_reload_test.cache");
  JobScheduler scheduler(registry, cfg);

  RolloutResult before = scheduler.submit(small_request(*sim, 5)).result.get();
  ASSERT_EQ(before.status, JobStatus::Ok);
  RolloutResult warm = scheduler.submit(small_request(*sim, 5)).result.get();
  EXPECT_TRUE(warm.cached);

  // Swap the checkpoint on disk and hot-reload: different weights, so the
  // digest — and with it every cache key of this model — changes.
  core::save_simulator(make_small_sim(/*seed=*/2), model_path);
  ASSERT_TRUE(registry->reload("m"));
  ModelRegistry::Handle reloaded = registry->get("m");

  RolloutResult after = scheduler.submit(small_request(*sim, 5)).result.get();
  ASSERT_EQ(after.status, JobStatus::Ok);
  EXPECT_FALSE(after.cached);  // the regression this test pins: no stale hit
  EXPECT_NE(after.frames, before.frames);
  EXPECT_EQ(after.frames, direct_rollout(*reloaded, 5));

  // Reloading an UNCHANGED checkpoint keeps the cache warm (same digest).
  ASSERT_TRUE(registry->reload("m"));
  RolloutResult still = scheduler.submit(small_request(*sim, 5)).result.get();
  EXPECT_TRUE(still.cached);
  EXPECT_EQ(still.frames, after.frames);

  fs::remove(model_path);
}

TEST_F(CacheServeTest, CacheSurvivesServerRestart) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");

  std::vector<std::vector<double>> first_frames;
  {
    SchedulerConfig cfg = sched_config(2, 32);
    cfg.stats_prefix = "cache_restart_test_a";
    cfg.cache = make_cache("cache_restart_test_a.cache");
    JobScheduler scheduler(registry, cfg);
    RolloutResult r = scheduler.submit(small_request(*sim, 6)).result.get();
    ASSERT_EQ(r.status, JobStatus::Ok);
    first_frames = r.frames;
  }  // scheduler and cache die; only the on-disk store remains

  SchedulerConfig cfg = sched_config(2, 32);
  cfg.stats_prefix = "cache_restart_test_b";
  cfg.cache = make_cache("cache_restart_test_b.cache");
  JobScheduler scheduler(registry, cfg);
  RolloutResult r = scheduler.submit(small_request(*sim, 6)).result.get();
  ASSERT_EQ(r.status, JobStatus::Ok);
  EXPECT_TRUE(r.cached);  // rebuilt from the mmap'd store, not recomputed
  EXPECT_EQ(r.frames, first_frames);
}

TEST_F(CacheServeTest, CacheMissOnDifferentRequestContent) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");

  SchedulerConfig cfg = sched_config(2, 32);
  cfg.stats_prefix = "cache_miss_test";
  cfg.cache = make_cache("cache_miss_test.cache");
  JobScheduler scheduler(registry, cfg);

  RolloutResult base = scheduler.submit(small_request(*sim, 4)).result.get();
  ASSERT_EQ(base.status, JobStatus::Ok);

  // Different material: different content address, must compute live.
  RolloutRequest req = small_request(*sim, 4);
  req.material += 0.05;
  RolloutResult other = scheduler.submit(req).result.get();
  ASSERT_EQ(other.status, JobStatus::Ok);
  EXPECT_FALSE(other.cached);

  // Different seed window: likewise.
  RolloutRequest shifted = small_request(*sim, 4);
  shifted.window[0][0] += 1e-12;  // one ULP-ish nudge is a different state
  RolloutResult third = scheduler.submit(shifted).result.get();
  ASSERT_EQ(third.status, JobStatus::Ok);
  EXPECT_FALSE(third.cached);
}

TEST_F(CacheServeTest, OverTheWireHitsAreBitwiseAndSkipWorkers) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");

  SchedulerConfig sched_cfg = sched_config(2, 32);
  sched_cfg.stats_prefix = "cache_net_test";
  sched_cfg.cache = make_cache("cache_net_test.cache");
  JobScheduler scheduler(registry, sched_cfg);

  net::ServerConfig net_cfg;
  net_cfg.port = 0;
  net::Server server(scheduler, std::move(net_cfg));
  ASSERT_TRUE(server.start());

  net::ClientConfig client_cfg;
  client_cfg.port = server.port();
  net::Client client(client_cfg);

  const RolloutRequest req = small_request(*sim, 6);
  net::ClientResult cold = client.rollout(req);
  ASSERT_TRUE(cold.ok()) << cold.transport_error << cold.error;
  // Wire results are bitwise the in-process rollout (raw IEEE doubles).
  EXPECT_EQ(cold.frames, direct_rollout(*sim, 6));

  net::ClientResult warm = client.rollout(req);
  ASSERT_TRUE(warm.ok()) << warm.transport_error << warm.error;
  EXPECT_EQ(warm.frames, cold.frames);
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("cache_net_test.cache.hit")
                .value(),
            1u);

  server.stop();
}

}  // namespace
}  // namespace gns::serve
