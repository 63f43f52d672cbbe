// Serving subsystem: registry semantics, scheduler concurrency/backpressure,
// and the bit-identical-to-serial guarantee for concurrent rollouts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <thread>

#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "serve/serve.hpp"

namespace gns::serve {
namespace {

using core::FeatureConfig;
using core::GnsConfig;
using core::LearnedSimulator;
using core::SceneContext;
using core::Window;

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

/// Request seeded from the canonical dataset's first window.
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

Window window_of(const LearnedSimulator& sim) {
  io::Dataset ds = small_dataset();
  return sim.window_from_trajectory(ds.trajectories[0]);
}

SceneContext context_of() {
  SceneContext ctx;
  ctx.material = ad::Tensor::scalar(0.6);
  return ctx;
}

class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = "test_serve_model.bin";
};

TEST_F(ServeTest, RegistryLoadGetErase) {
  auto registry = std::make_shared<ModelRegistry>();
  EXPECT_EQ(registry->get("m"), nullptr);
  EXPECT_FALSE(registry->load("m", "no_such_file.bin"));

  core::save_simulator(make_small_sim(), path_);
  ASSERT_TRUE(registry->load("m", path_));
  EXPECT_EQ(registry->size(), 1u);
  EXPECT_EQ(registry->names(), std::vector<std::string>{"m"});
  ModelRegistry::Handle handle = registry->get("m");
  ASSERT_NE(handle, nullptr);

  EXPECT_TRUE(registry->erase("m"));
  EXPECT_FALSE(registry->erase("m"));
  EXPECT_EQ(registry->get("m"), nullptr);
  // The outstanding handle survives erasure (shared ownership).
  EXPECT_GT(handle->model().num_parameters(), 0);
}

TEST_F(ServeTest, RegistryReloadSwapsWeightsAndKeepsOldHandleAlive) {
  core::save_simulator(make_small_sim(/*seed=*/1), path_);
  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->load("m", path_));
  ModelRegistry::Handle before = registry->get("m");

  core::save_simulator(make_small_sim(/*seed=*/2), path_);
  ASSERT_TRUE(registry->reload("m"));
  ModelRegistry::Handle after = registry->get("m");

  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before, after);
  EXPECT_NE(before->model().state(), after->model().state());
  // The pre-reload handle still rolls out on its original weights.
  auto frames = before->rollout(window_of(*before), 2, context_of());
  EXPECT_EQ(frames.size(), 2u);
}

TEST_F(ServeTest, RegistryReloadFailsCleanly) {
  auto registry = std::make_shared<ModelRegistry>();
  EXPECT_FALSE(registry->reload("m"));  // unknown name

  registry->put("m", make_small_sim());
  EXPECT_FALSE(registry->reload("m"));  // no backing path
  EXPECT_NE(registry->get("m"), nullptr);

  core::save_simulator(make_small_sim(), path_);
  ASSERT_TRUE(registry->load("disk", path_));
  ModelRegistry::Handle before = registry->get("disk");
  {  // corrupt the backing file: reload fails, entry stays live
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint";
  }
  EXPECT_FALSE(registry->reload("disk"));
  EXPECT_EQ(registry->get("disk"), before);
}

TEST_F(ServeTest, ConcurrentRolloutsBitIdenticalToSerial) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  ASSERT_NE(sim, nullptr);

  // Serial references for two job sizes, via the one-shot rollout API.
  const auto serial_short = sim->rollout(window_of(*sim), 5, context_of());
  const auto serial_long = sim->rollout(window_of(*sim), 9, context_of());

  JobScheduler scheduler(registry, sched_config(4, 64));
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 16; ++i)
    tickets.push_back(
        scheduler.submit(small_request(*sim, i % 2 == 0 ? 5 : 9)));

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    RolloutResult result = tickets[i].result.get();
    ASSERT_EQ(result.status, JobStatus::Ok) << result.error;
    const auto& serial = i % 2 == 0 ? serial_short : serial_long;
    ASSERT_EQ(result.frames.size(), serial.size());
    for (std::size_t t = 0; t < serial.size(); ++t) {
      ASSERT_EQ(result.frames[t].size(), serial[t].size());
      for (std::size_t k = 0; k < serial[t].size(); ++k) {
        // Bit-identical, not approximately equal: concurrent jobs share
        // only immutable weights and the op schedule is deterministic.
        ASSERT_EQ(result.frames[t][k], serial[t][k])
            << "job " << i << " frame " << t << " component " << k;
      }
    }
  }
  const StatsSnapshot snap = scheduler.stats().snapshot();
  EXPECT_EQ(snap.completed, 16u);
  EXPECT_EQ(snap.failed, 0u);
}

TEST_F(ServeTest, ModelNotFoundIsTypedError) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  JobScheduler scheduler(registry, sched_config(2, 8));

  RolloutRequest req = small_request(*sim, 2);
  req.model = "missing";
  RolloutResult result = scheduler.submit(std::move(req)).result.get();
  EXPECT_EQ(result.status, JobStatus::ModelNotFound);
  EXPECT_NE(result.error.find("missing"), std::string::npos);
}

TEST_F(ServeTest, QueueFullRejectsWithoutBlocking) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  JobScheduler scheduler(registry, sched_config(1, 2));

  scheduler.pause();  // workers idle: the queue fills deterministically
  JobTicket a = scheduler.submit(small_request(*sim, 2));
  JobTicket b = scheduler.submit(small_request(*sim, 2));
  JobTicket rejected = scheduler.submit(small_request(*sim, 2));

  // The rejection resolves immediately, before any worker runs.
  RolloutResult r = rejected.result.get();
  EXPECT_EQ(r.status, JobStatus::QueueFull);
  EXPECT_EQ(scheduler.queue_depth(), 2);

  scheduler.resume();
  EXPECT_EQ(a.result.get().status, JobStatus::Ok);
  EXPECT_EQ(b.result.get().status, JobStatus::Ok);
  const StatsSnapshot snap = scheduler.stats().snapshot();
  EXPECT_EQ(snap.rejected_queue_full, 1u);
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.peak_queue_depth, 2);
}

TEST_F(ServeTest, CompletionNoticeRunsOnceAfterTheFutureIsSet) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  JobScheduler scheduler(registry, sched_config(1, 1));

  scheduler.pause();
  std::future<RolloutResult> queued;
  std::atomic<int> notices{0};
  std::atomic<bool> ready_at_notice{false};
  JobTicket ticket = scheduler.submit(small_request(*sim, 2), [&] {
    ready_at_notice.store(queued.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready);
    notices.fetch_add(1);
  });
  queued = std::move(ticket.result);

  // A rejection resolves inside submit(), so its notice has run by the
  // time submit() returns.
  std::atomic<int> rejected_notices{0};
  JobTicket rejected = scheduler.submit(
      small_request(*sim, 2), [&] { rejected_notices.fetch_add(1); });
  EXPECT_EQ(rejected_notices.load(), 1);
  EXPECT_EQ(rejected.result.get().status, JobStatus::QueueFull);

  scheduler.resume();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (notices.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(notices.load(), 1);
  EXPECT_TRUE(ready_at_notice.load());
  EXPECT_EQ(queued.get().status, JobStatus::Ok);
  scheduler.shutdown();
  EXPECT_EQ(notices.load(), 1);
  EXPECT_EQ(rejected_notices.load(), 1);
}

TEST_F(ServeTest, DeadlineExceededWhileQueued) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  JobScheduler scheduler(registry, sched_config(1, 8));

  scheduler.pause();
  RolloutRequest req = small_request(*sim, 2);
  req.deadline_ms = 5.0;
  JobTicket ticket = scheduler.submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  scheduler.resume();

  RolloutResult result = ticket.result.get();
  EXPECT_EQ(result.status, JobStatus::DeadlineExceeded);
  EXPECT_TRUE(result.frames.empty());  // never occupied a worker
  EXPECT_EQ(scheduler.stats().snapshot().deadline_exceeded, 1u);
}

TEST_F(ServeTest, ExpiredDeadlineRejectedAtSubmitWithoutQueueing) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  JobScheduler scheduler(registry, sched_config(1, 8));

  // Paused workers make the queue observable: if the expired job were
  // enqueued (the old behavior treated negative deadline_ms as unbounded),
  // queue_depth would read 1 here.
  scheduler.pause();
  RolloutRequest req = small_request(*sim, 2);
  req.deadline_ms = -1.0;  // expired upstream (e.g. net deadline rebase)
  JobTicket ticket = scheduler.submit(std::move(req));

  RolloutResult result = ticket.result.get();  // resolves immediately
  EXPECT_EQ(result.status, JobStatus::DeadlineExceeded);
  EXPECT_TRUE(result.frames.empty());
  EXPECT_EQ(scheduler.queue_depth(), 0);  // never occupied a slot
  scheduler.resume();

  const StatsSnapshot snap = scheduler.stats().snapshot();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.completed, 0u);
}

TEST_F(ServeTest, DeadlineExceededMidRolloutReturnsPrefix) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  JobScheduler scheduler(registry, sched_config(1, 8));

  RolloutRequest req = small_request(*sim, 1000000);
  req.deadline_ms = 40.0;
  RolloutResult result = scheduler.submit(std::move(req)).result.get();
  EXPECT_EQ(result.status, JobStatus::DeadlineExceeded);
  // The worker gave up between steps: a strict prefix, not the full run.
  EXPECT_LT(result.frames.size(), 1000000u);
}

TEST_F(ServeTest, CancelQueuedJobNeverRuns) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  JobScheduler scheduler(registry, sched_config(1, 8));

  EXPECT_FALSE(scheduler.cancel(12345));  // unknown id

  scheduler.pause();
  JobTicket ticket = scheduler.submit(small_request(*sim, 2));
  EXPECT_TRUE(scheduler.cancel(ticket.id));
  scheduler.resume();

  RolloutResult result = ticket.result.get();
  EXPECT_EQ(result.status, JobStatus::Cancelled);
  EXPECT_TRUE(result.frames.empty());
  EXPECT_FALSE(scheduler.cancel(ticket.id));  // already resolved
  EXPECT_EQ(scheduler.stats().snapshot().cancelled, 1u);
}

TEST_F(ServeTest, ShutdownWithoutDrainAbandonsQueued) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  auto scheduler =
      std::make_unique<JobScheduler>(registry, sched_config(1, 8));

  scheduler->pause();
  JobTicket a = scheduler->submit(small_request(*sim, 2));
  JobTicket b = scheduler->submit(small_request(*sim, 2));
  scheduler->shutdown(/*drain=*/false);

  EXPECT_EQ(a.result.get().status, JobStatus::ShutDown);
  EXPECT_EQ(b.result.get().status, JobStatus::ShutDown);

  // Post-shutdown submissions are typed rejections, not hangs.
  JobTicket late = scheduler->submit(small_request(*sim, 2));
  EXPECT_EQ(late.result.get().status, JobStatus::ShutDown);
  scheduler.reset();  // destructor joins cleanly after explicit shutdown
}

TEST_F(ServeTest, DestructorDrainsQueuedJobs) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  std::vector<JobTicket> tickets;
  {
    JobScheduler scheduler(registry, sched_config(2, 16));
    for (int i = 0; i < 6; ++i)
      tickets.push_back(scheduler.submit(small_request(*sim, 3)));
  }  // ~JobScheduler drains
  for (auto& t : tickets) EXPECT_EQ(t.result.get().status, JobStatus::Ok);
}

TEST_F(ServeTest, MalformedRequestIsExecutionErrorAndSchedulerSurvives) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  JobScheduler scheduler(registry, sched_config(2, 8));

  RolloutRequest bad = small_request(*sim, 2);
  bad.window.pop_back();  // wrong window length
  RolloutResult r1 = scheduler.submit(std::move(bad)).result.get();
  EXPECT_EQ(r1.status, JobStatus::ExecutionError);
  EXPECT_FALSE(r1.error.empty());

  RolloutRequest zero = small_request(*sim, 2);
  zero.steps = 0;
  RolloutResult r2 = scheduler.submit(std::move(zero)).result.get();
  EXPECT_EQ(r2.status, JobStatus::ExecutionError);

  // The pool is still healthy.
  RolloutResult ok = scheduler.submit(small_request(*sim, 2)).result.get();
  EXPECT_EQ(ok.status, JobStatus::Ok);
  EXPECT_EQ(scheduler.stats().snapshot().failed, 2u);
}

TEST_F(ServeTest, FarParticleDoesNotSizeTheNeighborGrid) {
  // Request coordinates must not size what a step allocates: the neighbor
  // grid covers the model's configured domain, and a particle far outside
  // it clamps into a boundary cell. A grid sized by the newest frame's
  // bounding box would ask for 25,000 x 25,000 cells here. Schedulers at
  // max_batch 1 and 2 must serve it, bitwise alike.
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  RolloutRequest far = small_request(*sim, 3);
  for (auto& frame : far.window) {
    frame.push_back(1e4);
    frame.push_back(1e4);
  }

  std::vector<std::vector<std::vector<double>>> frames;
  for (int max_batch : {1, 2}) {
    SchedulerConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 4;
    cfg.max_batch = max_batch;
    JobScheduler scheduler(registry, cfg);
    RolloutResult result = scheduler.submit(RolloutRequest(far)).result.get();
    ASSERT_EQ(result.status, JobStatus::Ok)
        << "max_batch " << max_batch << ": " << result.error;
    ASSERT_EQ(result.frames.size(), 3u);
    frames.push_back(std::move(result.frames));
  }
  EXPECT_EQ(frames[0], frames[1]);
}

// ---------- Batched dispatch (max_batch > 1) ----------

TEST_F(ServeTest, BatchedSchedulerMatchesSequentialBitwise) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  const auto serial_short = sim->rollout(window_of(*sim), 5, context_of());
  const auto serial_long = sim->rollout(window_of(*sim), 9, context_of());

  SchedulerConfig cfg;
  cfg.workers = 1;  // one worker => queued jobs must coalesce
  cfg.queue_capacity = 64;
  cfg.max_batch = 4;
  JobScheduler scheduler(registry, cfg);

  scheduler.pause();  // fill the queue so dispatches actually batch
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 12; ++i)
    tickets.push_back(
        scheduler.submit(small_request(*sim, i % 2 == 0 ? 5 : 9)));
  scheduler.resume();

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    RolloutResult result = tickets[i].result.get();
    ASSERT_EQ(result.status, JobStatus::Ok) << result.error;
    const auto& serial = i % 2 == 0 ? serial_short : serial_long;
    ASSERT_EQ(result.frames.size(), serial.size());
    for (std::size_t t = 0; t < serial.size(); ++t)
      for (std::size_t k = 0; k < serial[t].size(); ++k)
        ASSERT_EQ(result.frames[t][k], serial[t][k])
            << "job " << i << " frame " << t << " component " << k;
  }

  const StatsSnapshot snap = scheduler.stats().snapshot();
  EXPECT_EQ(snap.completed, 12u);
  EXPECT_EQ(snap.failed, 0u);
  // 12 jobs through one worker at max_batch=4: at most 12 dispatches, and
  // at least one of them must have coalesced a full batch.
  EXPECT_GE(snap.batch_size.count(), 1u);
  EXPECT_LE(snap.batch_size.count(), 12u);
  EXPECT_GE(snap.batch_size.max(), 4.0);
}

TEST_F(ServeTest, BatchedJobHonorsEarliestMemberDeadline) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  const auto serial = sim->rollout(window_of(*sim), 3, context_of());

  SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.max_batch = 2;
  JobScheduler scheduler(registry, cfg);

  scheduler.pause();  // both jobs queue, then coalesce into one batch
  RolloutRequest doomed = small_request(*sim, 1000000);
  doomed.deadline_ms = 60.0;
  JobTicket a = scheduler.submit(std::move(doomed));
  JobTicket b = scheduler.submit(small_request(*sim, 3));
  scheduler.resume();

  // The unbounded member hits its deadline mid-batch and is compacted out
  // with the frames computed so far...
  RolloutResult ra = a.result.get();
  EXPECT_EQ(ra.status, JobStatus::DeadlineExceeded);
  EXPECT_LT(ra.frames.size(), 1000000u);
  EXPECT_NE(ra.error.find("deadline exceeded"), std::string::npos);

  // ...while its batch sibling finishes normally with frames bit-identical
  // to a solo rollout.
  RolloutResult rb = b.result.get();
  ASSERT_EQ(rb.status, JobStatus::Ok) << rb.error;
  ASSERT_EQ(rb.frames.size(), serial.size());
  for (std::size_t t = 0; t < serial.size(); ++t)
    for (std::size_t k = 0; k < serial[t].size(); ++k)
      ASSERT_EQ(rb.frames[t][k], serial[t][k]);

  EXPECT_EQ(scheduler.stats().snapshot().deadline_exceeded, 1u);
}

TEST_F(ServeTest, BatchWindowWaitIsCappedByEarliestDeadline) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");

  SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.max_batch = 4;
  cfg.batch_window_us = 30'000'000.0;  // 30 s: would dwarf the deadline
  JobScheduler scheduler(registry, cfg);

  RolloutRequest req = small_request(*sim, 3);
  req.deadline_ms = 50.0;
  const auto t0 = std::chrono::steady_clock::now();
  RolloutResult result = scheduler.submit(std::move(req)).result.get();
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // Without the deadline cap the lone member would sit out the full 30 s
  // window. With it, the scheduler dispatches at the deadline.
  EXPECT_LT(waited_ms, 5000.0);
  EXPECT_EQ(result.status, JobStatus::DeadlineExceeded);
}

TEST_F(ServeTest, BatchedMalformedMemberFailsAloneAndCancelledMemberSkipped) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  const auto serial = sim->rollout(window_of(*sim), 2, context_of());

  SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.max_batch = 3;
  JobScheduler scheduler(registry, cfg);

  scheduler.pause();
  RolloutRequest bad = small_request(*sim, 2);
  bad.window.pop_back();  // malformed: wrong window length
  JobTicket a = scheduler.submit(std::move(bad));
  JobTicket b = scheduler.submit(small_request(*sim, 2));
  JobTicket c = scheduler.submit(small_request(*sim, 2));
  ASSERT_TRUE(scheduler.cancel(c.id));
  scheduler.resume();

  RolloutResult ra = a.result.get();
  EXPECT_EQ(ra.status, JobStatus::ExecutionError);
  EXPECT_FALSE(ra.error.empty());

  RolloutResult rb = b.result.get();
  ASSERT_EQ(rb.status, JobStatus::Ok) << rb.error;
  ASSERT_EQ(rb.frames.size(), serial.size());
  for (std::size_t t = 0; t < serial.size(); ++t)
    for (std::size_t k = 0; k < serial[t].size(); ++k)
      ASSERT_EQ(rb.frames[t][k], serial[t][k]);

  EXPECT_EQ(c.result.get().status, JobStatus::Cancelled);
}

TEST_F(ServeTest, FailedBatchStepFailsOnlyTheMembersItSteps) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->put("m", make_small_sim());
  ModelRegistry::Handle sim = registry->get("m");
  const auto serial = sim->rollout(window_of(*sim), 1, context_of());

  SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.max_batch = 2;
  JobScheduler scheduler(registry, cfg);

  // Two particles 0.9 r apart, separating at 0.5 r per frame: the first
  // step has edges, the second (1.4 r apart) has none and throws.
  const double r = sim->features().connectivity_radius;
  RolloutRequest parting = small_request(*sim, 3);
  for (std::size_t t = 0; t < parting.window.size(); ++t) {
    const double gap =
        0.9 * r - 0.5 * r * static_cast<double>(parting.window.size() - 1 - t);
    parting.window[t] = {0.5 - gap / 2, 0.5, 0.5 + gap / 2, 0.5};
  }

  scheduler.pause();  // both jobs queue, then coalesce into one batch
  JobTicket a = scheduler.submit(small_request(*sim, 1));
  JobTicket b = scheduler.submit(std::move(parting));
  scheduler.resume();

  // The member that finished before the failing step keeps its outcome...
  RolloutResult ra = a.result.get();
  ASSERT_EQ(ra.status, JobStatus::Ok) << ra.error;
  EXPECT_EQ(ra.frames, serial);

  // ...and the member whose step threw keeps the frames it computed.
  RolloutResult rb = b.result.get();
  EXPECT_EQ(rb.status, JobStatus::ExecutionError);
  EXPECT_EQ(rb.frames.size(), 1u);
  EXPECT_NE(rb.error.find("no edges"), std::string::npos) << rb.error;
  EXPECT_EQ(scheduler.stats().snapshot().batch_size.max(), 2.0);
}

}  // namespace
}  // namespace gns::serve
