// Deadline and cancellation propagation through the executor-backed
// scheduler (DESIGN.md §13): expiry at submit, expiry via the queued
// deadline timer, expiry and cancellation between chain steps, and the
// batch-window regression where a cancelled job whose coalescing timer is
// still pending must never execute.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "serve/serve.hpp"

namespace gns::serve {
namespace {

using core::FeatureConfig;
using core::GnsConfig;
using core::LearnedSimulator;

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

LearnedSimulator make_small_sim() {
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
  return core::make_simulator(small_dataset(), fc, gc, 42);
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

class ExecServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_shared<ModelRegistry>();
    registry_->put("m", make_small_sim());
    sim_ = registry_->get("m");
    ASSERT_NE(sim_, nullptr);
  }
  std::shared_ptr<ModelRegistry> registry_;
  ModelRegistry::Handle sim_;
};

TEST_F(ExecServeTest, ExpiredAtSubmitResolvesWithoutTouchingTheExecutor) {
  JobScheduler scheduler(registry_, SchedulerConfig{1, 8});
  RolloutRequest req = small_request(*sim_, 2);
  req.deadline_ms = -1.0;  // upstream budget already spent
  JobTicket ticket = scheduler.submit(std::move(req));

  // Resolution is synchronous: no chain, no timer, no queue slot.
  RolloutResult result = ticket.result.get();
  EXPECT_EQ(result.status, JobStatus::DeadlineExceeded);
  EXPECT_TRUE(result.frames.empty());
  EXPECT_EQ(scheduler.queue_depth(), 0);
  const StatsSnapshot snap = scheduler.stats().snapshot();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.completed, 0u);
}

TEST_F(ExecServeTest, QueuedDeadlineFiresAsTimerWhilePaused) {
  JobScheduler scheduler(registry_, SchedulerConfig{1, 8});

  // With the scheduler paused nothing ever dequeues the job; only the
  // armed deadline timer can resolve it.
  scheduler.pause();
  RolloutRequest req = small_request(*sim_, 2);
  req.deadline_ms = 20.0;
  JobTicket ticket = scheduler.submit(std::move(req));

  RolloutResult result = ticket.result.get();
  EXPECT_EQ(result.status, JobStatus::DeadlineExceeded);
  EXPECT_NE(result.error.find("while queued"), std::string::npos);
  EXPECT_TRUE(result.frames.empty());
  EXPECT_GE(result.queue_ms, 0.0);
  EXPECT_EQ(scheduler.queue_depth(), 0);
  scheduler.resume();
}

TEST_F(ExecServeTest, ExpiredMidChainReturnsPrefixWithTypedError) {
  JobScheduler scheduler(registry_, SchedulerConfig{1, 8});
  RolloutRequest req = small_request(*sim_, 1000000);
  req.deadline_ms = 40.0;
  RolloutResult result = scheduler.submit(std::move(req)).result.get();
  EXPECT_EQ(result.status, JobStatus::DeadlineExceeded);
  EXPECT_NE(result.error.find("deadline exceeded after"), std::string::npos);
  // Gave up between chain steps: a strict, non-empty prefix.
  EXPECT_LT(result.frames.size(), 1000000u);
}

TEST_F(ExecServeTest, CancelMidChainStopsBetweenSteps) {
  JobScheduler scheduler(registry_, SchedulerConfig{1, 8});
  JobTicket ticket = scheduler.submit(small_request(*sim_, 1000000));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(scheduler.cancel(ticket.id));

  RolloutResult result = ticket.result.get();
  EXPECT_EQ(result.status, JobStatus::Cancelled);
  EXPECT_LT(result.frames.size(), 1000000u);
  EXPECT_EQ(scheduler.stats().snapshot().cancelled, 1u);
}

TEST_F(ExecServeTest, CancelMidBatchSkipsMemberAndSiblingSurvives) {
  SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.max_batch = 2;
  JobScheduler scheduler(registry_, cfg);

  scheduler.pause();  // both jobs queue, then coalesce into one batch
  JobTicket doomed = scheduler.submit(small_request(*sim_, 1000000));
  JobTicket sibling = scheduler.submit(small_request(*sim_, 3));
  scheduler.resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(scheduler.cancel(doomed.id));

  // The cancelled member leaves the batch between message rounds...
  RolloutResult rd = doomed.result.get();
  EXPECT_EQ(rd.status, JobStatus::Cancelled);
  EXPECT_LT(rd.frames.size(), 1000000u);
  // ...and its sibling completes normally.
  RolloutResult rs = sibling.result.get();
  EXPECT_EQ(rs.status, JobStatus::Ok) << rs.error;
  EXPECT_EQ(rs.frames.size(), 3u);
}

// Regression for the submit -> executor handoff bug: a job parked behind
// a batch-window timer used to slip past cancellation (the timer task
// dispatched the batch without re-checking flags). The pre-dispatch sweep
// in dispatch_pending must resolve it as Cancelled, unexecuted.
TEST_F(ExecServeTest, CancelWhileBatchWindowPending) {
  SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.max_batch = 2;
  cfg.batch_window_us = 150'000.0;  // 150 ms coalescing window
  JobScheduler scheduler(registry_, cfg);

  JobTicket ticket = scheduler.submit(small_request(*sim_, 3));
  // Let the lone job park as an underfull pending batch, then cancel it
  // while its window timer is still armed.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(scheduler.cancel(ticket.id));

  RolloutResult result = ticket.result.get();
  EXPECT_EQ(result.status, JobStatus::Cancelled);
  EXPECT_TRUE(result.frames.empty());  // never executed a step
  EXPECT_GE(result.queue_ms, 0.0);

  const StatsSnapshot snap = scheduler.stats().snapshot();
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_EQ(snap.cancelled, 1u);
}

TEST_F(ExecServeTest, BatchWindowCoalescesSecondSubmitBeforeTimerFires) {
  SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.max_batch = 2;
  cfg.batch_window_us = 5'000'000.0;  // 5 s: only top-up can beat it
  JobScheduler scheduler(registry_, cfg);

  const auto t0 = std::chrono::steady_clock::now();
  JobTicket a = scheduler.submit(small_request(*sim_, 3));
  JobTicket b = scheduler.submit(small_request(*sim_, 3));
  EXPECT_EQ(a.result.get().status, JobStatus::Ok);
  EXPECT_EQ(b.result.get().status, JobStatus::Ok);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // The second submit filled the parked batch and cancelled its window
  // timer — nobody waited out the 5 s window.
  EXPECT_LT(elapsed_s, 4.0);
  EXPECT_GE(scheduler.stats().snapshot().batch_size.max(), 2.0);
}

}  // namespace
}  // namespace gns::serve
