// Units for the work-stealing executor subsystem (src/exec): Chase-Lev
// deque invariants, task submission and stealing, timer scheduling and
// cancellation semantics, the parallel_for determinism contract, and the
// IoBridge oneshot fd-watch lifecycle.

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "exec/io_bridge.hpp"
#include "exec/parallel_for.hpp"
#include "exec/steal_deque.hpp"

namespace gns::exec {
namespace {

using namespace std::chrono_literals;

/// Polls pred every millisecond for up to ~5s; true iff it became true.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// ---------------------------------------------------------------------------
// StealDeque

TEST(StealDequeTest, OwnerPopsLifoThievesStealFifo) {
  StealDeque<int> dq(8);
  int items[4] = {0, 1, 2, 3};
  for (int& i : items) ASSERT_TRUE(dq.push_bottom(&i));
  // Thief sees the oldest item first.
  EXPECT_EQ(dq.steal_top(), &items[0]);
  // Owner sees the newest.
  EXPECT_EQ(dq.pop_bottom(), &items[3]);
  EXPECT_EQ(dq.pop_bottom(), &items[2]);
  EXPECT_EQ(dq.steal_top(), &items[1]);
  EXPECT_EQ(dq.pop_bottom(), nullptr);
  EXPECT_EQ(dq.steal_top(), nullptr);
  EXPECT_TRUE(dq.empty_hint());
}

TEST(StealDequeTest, PushReportsFullInsteadOfGrowing) {
  StealDeque<int> dq(4);
  int items[5] = {0, 1, 2, 3, 4};
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(dq.push_bottom(&items[i]));
  EXPECT_FALSE(dq.push_bottom(&items[4]));
  // Draining one slot makes room again.
  EXPECT_NE(dq.steal_top(), nullptr);
  EXPECT_TRUE(dq.push_bottom(&items[4]));
}

TEST(StealDequeTest, ConcurrentStealsLoseNothingAndDuplicateNothing) {
  // One owner pushes/pops while thieves steal; every item must be
  // consumed exactly once between the owner and the thieves.
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  StealDeque<int> dq(1024);
  std::vector<int> values(kItems);
  for (int i = 0; i < kItems; ++i) values[static_cast<std::size_t>(i)] = i;

  std::atomic<bool> done{false};
  std::vector<std::vector<int>> stolen(kThieves);
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&dq, &done, &stolen, t] {
      while (!done.load(std::memory_order_acquire)) {
        if (int* item = dq.steal_top())
          stolen[static_cast<std::size_t>(t)].push_back(*item);
        else
          std::this_thread::yield();
      }
      while (int* item = dq.steal_top())
        stolen[static_cast<std::size_t>(t)].push_back(*item);
    });
  }

  std::vector<int> popped;
  int next = 0;
  while (next < kItems) {
    // Push a burst, then pop some back, leaving the rest to thieves.
    int pushed = 0;
    while (next < kItems && pushed < 64 &&
           dq.push_bottom(&values[static_cast<std::size_t>(next)])) {
      ++next;
      ++pushed;
    }
    for (int i = 0; i < pushed / 2; ++i)
      if (int* item = dq.pop_bottom()) popped.push_back(*item);
  }
  while (int* item = dq.pop_bottom()) popped.push_back(*item);
  done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();

  std::set<int> seen(popped.begin(), popped.end());
  std::size_t total = popped.size();
  for (const std::vector<int>& s : stolen) {
    total += s.size();
    seen.insert(s.begin(), s.end());
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kItems));  // nothing duplicated
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kItems));  // nothing lost
}

// ---------------------------------------------------------------------------
// Executor: submission, stealing, stats

TEST(ExecutorTest, RunsSubmittedTasksFromExternalThreads) {
  Executor ex(2);
  constexpr int kTasks = 256;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i)
    ex.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_TRUE(eventually([&ran] { return ran.load() == kTasks; }));
  const ExecutorStats stats = ex.stats();
  EXPECT_EQ(stats.workers, 2);
  EXPECT_GE(stats.submitted, static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(stats.executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(stats.injected, static_cast<std::uint64_t>(kTasks));
}

TEST(ExecutorTest, WorkerSubmissionsLandOnDequesAndChainsComplete) {
  Executor ex(2);
  // A chain of continuations: each task submits the next from a worker
  // thread, exercising the push-to-own-deque path.
  constexpr int kLinks = 100;
  std::atomic<int> link{0};
  std::mutex m;
  std::condition_variable cv;
  bool finished = false;
  std::function<void()> step = [&] {
    EXPECT_TRUE(ex.on_worker_thread());
    if (link.fetch_add(1, std::memory_order_relaxed) + 1 < kLinks) {
      ex.submit(step);
    } else {
      std::lock_guard<std::mutex> lock(m);
      finished = true;
      cv.notify_all();
    }
  };
  EXPECT_FALSE(ex.on_worker_thread());
  ex.submit(step);
  std::unique_lock<std::mutex> lock(m);
  EXPECT_TRUE(cv.wait_for(lock, 10s, [&finished] { return finished; }));
  EXPECT_EQ(link.load(), kLinks);
}

TEST(ExecutorTest, DestructorDrainsWithoutDeadlock) {
  std::atomic<int> ran{0};
  {
    Executor ex(3);
    for (int i = 0; i < 64; ++i)
      ex.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    ASSERT_TRUE(eventually([&ran] { return ran.load() == 64; }));
  }  // join here must not hang
  EXPECT_EQ(ran.load(), 64);
}

// ---------------------------------------------------------------------------
// Timers

TEST(ExecutorTimerTest, ScheduleAfterFiresOnAWorker) {
  Executor ex(1);
  std::atomic<bool> fired{false};
  std::atomic<bool> on_worker{false};
  ex.schedule_after(5.0, [&] {
    on_worker.store(ex.on_worker_thread());
    fired.store(true, std::memory_order_release);
  });
  EXPECT_TRUE(eventually([&fired] { return fired.load(); }));
  EXPECT_TRUE(on_worker.load());  // fired callbacks run as tasks
}

TEST(ExecutorTimerTest, CancelledTimerNeverRuns) {
  Executor ex(1);
  std::atomic<bool> fired{false};
  const Executor::TimerId id =
      ex.schedule_after(50.0, [&fired] { fired.store(true); });
  EXPECT_TRUE(ex.cancel_timer(id));
  std::this_thread::sleep_for(150ms);
  EXPECT_FALSE(fired.load());
  // A second cancel of the same id is a miss, not a crash.
  EXPECT_FALSE(ex.cancel_timer(id));
}

TEST(ExecutorTimerTest, CancelAfterFireReportsFalse) {
  Executor ex(1);
  std::atomic<bool> fired{false};
  const Executor::TimerId id =
      ex.schedule_after(1.0, [&fired] { fired.store(true); });
  ASSERT_TRUE(eventually([&fired] { return fired.load(); }));
  EXPECT_FALSE(ex.cancel_timer(id));
}

TEST(ExecutorTimerTest, ScheduleAtHonorsDueTime) {
  Executor ex(1);
  const auto start = TimerWheel::Clock::now();
  std::atomic<std::int64_t> elapsed_ms{-1};
  std::atomic<bool> fired{false};
  ex.schedule_at(start + 30ms, [&] {
    elapsed_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                         TimerWheel::Clock::now() - start)
                         .count());
    fired.store(true, std::memory_order_release);
  });
  EXPECT_TRUE(eventually([&fired] { return fired.load(); }));
  EXPECT_GE(elapsed_ms.load(), 25);  // never early (modulo tick rounding)
}

// ---------------------------------------------------------------------------
// parallel_for / parallel_jobs determinism contract

TEST(ParallelForTest, MatchesSerialBitwise) {
  constexpr std::int64_t kN = 10007;  // prime: uneven chunk boundaries
  std::vector<double> serial(kN), par(kN);
  auto f = [](std::int64_t i) {
    return std::sin(0.001 * static_cast<double>(i)) * 3.0 +
           static_cast<double>(i % 17);
  };
  for (std::int64_t i = 0; i < kN; ++i)
    serial[static_cast<std::size_t>(i)] = f(i);
  parallel_for(kN, true,
               [&par, &f](std::int64_t i) {
                 par[static_cast<std::size_t>(i)] = f(i);
               });
  for (std::int64_t i = 0; i < kN; ++i)
    ASSERT_EQ(par[static_cast<std::size_t>(i)],
              serial[static_cast<std::size_t>(i)])
        << "i=" << i;
}

TEST(ParallelForTest, CoversEveryIterationExactlyOnce) {
  constexpr std::int64_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  parallel_for(kN, true, [&hits](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
}

TEST(ParallelForTest, NestedCallsRunSerialAndTerminate) {
  // A body that itself calls parallel_for must not deadlock the pool.
  constexpr std::int64_t kOuter = 64;
  constexpr std::int64_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  parallel_for(kOuter, true, [&hits](std::int64_t o) {
    parallel_for(kInner, true, [&hits, o](std::int64_t i) {
      hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(ParallelForTest, ZeroAndNegativeTripCountsAreNoops) {
  int calls = 0;
  parallel_for(0, true, [&calls](std::int64_t) { ++calls; });
  parallel_for(-5, true, [&calls](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelJobsTest, FixedLaneReductionIsDeterministic) {
  // The MPM p2g pattern: lanes accumulate privately, then a serial
  // ascending-lane reduction. Two runs must agree bitwise.
  constexpr int kLanes = 8;
  constexpr int kItems = 5000;
  auto run = [] {
    std::vector<double> lane_sums(kLanes, 0.0);
    parallel_jobs(kLanes, true, [&lane_sums](int lane) {
      double acc = 0.0;
      for (int i = lane; i < kItems; i += kLanes)
        acc += std::sqrt(static_cast<double>(i) + 0.5);
      lane_sums[static_cast<std::size_t>(lane)] = acc;
    });
    double total = 0.0;
    for (int lane = 0; lane < kLanes; ++lane)
      total += lane_sums[static_cast<std::size_t>(lane)];
    return total;
  };
  const double a = run();
  const double b = run();
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// IoBridge

class IoBridgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::pipe(fds_), 0);
    executor_ = std::make_unique<Executor>(1);
    bridge_ = std::make_unique<IoBridge>(*executor_);
  }
  void TearDown() override {
    bridge_->stop();
    bridge_.reset();
    executor_.reset();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  void poke() { ASSERT_EQ(::write(fds_[1], "x", 1), 1); }
  void drain_byte() {
    char c;
    ASSERT_EQ(::read(fds_[0], &c, 1), 1);
  }

  int fds_[2] = {-1, -1};
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<IoBridge> bridge_;
};

TEST_F(IoBridgeTest, ReadinessBecomesATaskWithRevents) {
  std::atomic<int> fires{0};
  std::atomic<short> revents{0};
  const int id = bridge_->watch(fds_[0], POLLIN, [&](short re) {
    revents.store(re);
    fires.fetch_add(1);
  });
  EXPECT_GT(id, 0);
  poke();
  EXPECT_TRUE(eventually([&fires] { return fires.load() == 1; }));
  EXPECT_TRUE(revents.load() & POLLIN);
}

TEST_F(IoBridgeTest, OneshotDoesNotRefireUntilRearmed) {
  std::atomic<int> fires{0};
  const int id =
      bridge_->watch(fds_[0], POLLIN, [&fires](short) { fires.fetch_add(1); });
  poke();
  ASSERT_TRUE(eventually([&fires] { return fires.load() == 1; }));
  // Byte still unread and a second byte arrives: without rearm, silence.
  poke();
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(fires.load(), 1);
  bridge_->rearm(id, POLLIN);
  EXPECT_TRUE(eventually([&fires] { return fires.load() == 2; }));
}

TEST_F(IoBridgeTest, UnwatchedFdNeverFires) {
  std::atomic<int> fires{0};
  const int id =
      bridge_->watch(fds_[0], POLLIN, [&fires](short) { fires.fetch_add(1); });
  bridge_->unwatch(id);
  poke();
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(fires.load(), 0);
}

TEST_F(IoBridgeTest, StopDrainsInFlightCallbacksAndIsIdempotent) {
  std::atomic<int> fires{0};
  bridge_->watch(fds_[0], POLLIN, [&](short) {
    drain_byte();
    std::this_thread::sleep_for(20ms);  // keep the callback in flight
    fires.fetch_add(1);
  });
  poke();
  // Give the poller a moment to submit the callback, then stop: stop()
  // must wait for the running callback rather than racing its capture.
  std::this_thread::sleep_for(10ms);
  bridge_->stop();
  EXPECT_EQ(fires.load(), 1);
  bridge_->stop();  // idempotent
  bridge_->rearm(1, POLLIN);  // no-ops on a stopped bridge
  bridge_->unwatch(1);
}

}  // namespace
}  // namespace gns::exec
