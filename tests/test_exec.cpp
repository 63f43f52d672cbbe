// Units for the work-stealing executor subsystem (src/exec): Chase-Lev
// deque invariants, task submission and stealing, timer scheduling and
// cancellation semantics, the parallel_for determinism contract, and the
// oneshot fd-watch lifecycle on the executor's event thread.

#include <gtest/gtest.h>

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
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

/// The affinity masks of all `workers` workers, read on each worker while
/// every worker holds a task (so each mask comes from a different one).
std::vector<cpu_set_t> worker_masks(Executor& ex, int workers) {
  std::atomic<int> arrived{0};
  std::mutex m;
  std::vector<cpu_set_t> masks;
  for (int t = 0; t < workers; ++t)
    ex.submit([&] {
      arrived.fetch_add(1);
      const bool all = eventually([&] { return arrived.load() == workers; });
      cpu_set_t mine;
      CPU_ZERO(&mine);
      if (all) sched_getaffinity(0, sizeof(mine), &mine);
      std::lock_guard<std::mutex> lock(m);
      masks.push_back(mine);
    });
  EXPECT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lock(m);
    return static_cast<int>(masks.size()) == workers;
  }));
  std::lock_guard<std::mutex> lock(m);
  return masks;
}

TEST(ExecutorTest, PinsEachWorkerToItsOwnCpu) {
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  if (CPU_COUNT(&allowed) < 2) GTEST_SKIP() << "needs two allowed CPUs";
  Executor ex(2);
  const std::vector<cpu_set_t> masks = worker_masks(ex, 2);
  ASSERT_EQ(masks.size(), 2u);
  std::set<int> cpus;
  for (const cpu_set_t& mask : masks) {
    ASSERT_EQ(CPU_COUNT(&mask), 1);
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &mask)) {
        EXPECT_TRUE(CPU_ISSET(c, &allowed));
        cpus.insert(c);
      }
  }
  EXPECT_EQ(cpus.size(), 2u);
}

TEST(ExecutorTest, LeavesWorkersUnpinnedWhenThereAreMoreWorkersThanCpus) {
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  const int workers = CPU_COUNT(&allowed) + 1;
  Executor ex(workers);
  for (const cpu_set_t& mask : worker_masks(ex, workers))
    EXPECT_TRUE(CPU_EQUAL(&mask, &allowed));
}

/// The kernel thread ids of all `workers` workers, read like worker_masks.
std::vector<pid_t> worker_tids(Executor& ex, int workers) {
  std::atomic<int> arrived{0};
  std::mutex m;
  std::vector<pid_t> tids;
  for (int t = 0; t < workers; ++t)
    ex.submit([&] {
      arrived.fetch_add(1);
      const bool all = eventually([&] { return arrived.load() == workers; });
      const auto tid = static_cast<pid_t>(::syscall(SYS_gettid));
      std::lock_guard<std::mutex> lock(m);
      if (all) tids.push_back(tid);
    });
  EXPECT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lock(m);
    return static_cast<int>(tids.size()) == workers;
  }));
  std::lock_guard<std::mutex> lock(m);
  return tids;
}

/// voluntary_ctxt_switches of thread `tid` of this process, -1 if unread.
long voluntary_switches(pid_t tid) {
  std::ifstream status("/proc/self/task/" + std::to_string(tid) + "/status");
  const std::string key = "voluntary_ctxt_switches:";
  for (std::string line; std::getline(status, line);)
    if (line.rfind(key, 0) == 0) return std::stol(line.substr(key.size()));
  return -1;
}

TEST(ExecutorTest, IdleWorkersStayParked) {
  Executor ex(2);
  const std::vector<pid_t> tids = worker_tids(ex, 2);
  ASSERT_EQ(tids.size(), 2u);
  ASSERT_NE(tids[0], tids[1]);
  std::this_thread::sleep_for(50ms);  // both workers park
  std::vector<long> before;
  for (const pid_t tid : tids) {
    before.push_back(voluntary_switches(tid));
    ASSERT_GE(before.back(), 0);
  }
  // Nothing is submitted: a parked worker has no reason to wake up.
  std::this_thread::sleep_for(300ms);
  for (std::size_t i = 0; i < tids.size(); ++i)
    EXPECT_LE(voluntary_switches(tids[i]) - before[i], 1)
        << "worker " << i << " woke while the executor was idle";
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
  const auto start = Executor::Clock::now();
  std::atomic<std::int64_t> elapsed_ms{-1};
  std::atomic<bool> fired{false};
  ex.schedule_at(start + 30ms, [&] {
    elapsed_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                         Executor::Clock::now() - start)
                         .count());
    fired.store(true, std::memory_order_release);
  });
  EXPECT_TRUE(eventually([&fired] { return fired.load(); }));
  EXPECT_GE(elapsed_ms.load(), 30);  // never early, not even by a rounding
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
// Fd watches

class ExecutorWatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::pipe(fds_), 0);
    executor_ = std::make_unique<Executor>(1);
  }
  void TearDown() override {
    executor_.reset();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  void poke() { ASSERT_EQ(::write(fds_[1], "x", 1), 1); }

  int fds_[2] = {-1, -1};
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorWatchTest, ReadinessBecomesATaskWithRevents) {
  std::atomic<int> fires{0};
  std::atomic<short> revents{0};
  std::atomic<bool> on_worker{false};
  const int id = executor_->watch(fds_[0], POLLIN, [&](short re) {
    revents.store(re);
    on_worker.store(executor_->on_worker_thread());
    fires.fetch_add(1);
  });
  EXPECT_GT(id, 0);
  poke();
  EXPECT_TRUE(eventually([&fires] { return fires.load() == 1; }));
  EXPECT_TRUE(revents.load() & POLLIN);
  EXPECT_TRUE(on_worker.load());
}

TEST_F(ExecutorWatchTest, OneshotDoesNotRefireUntilRearmed) {
  std::atomic<int> fires{0};
  const int id = executor_->watch(fds_[0], POLLIN,
                                  [&fires](short) { fires.fetch_add(1); });
  poke();
  ASSERT_TRUE(eventually([&fires] { return fires.load() == 1; }));
  // Byte still unread and a second byte arrives: without rearm, silence.
  poke();
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(fires.load(), 1);
  EXPECT_TRUE(executor_->rearm(id, POLLIN));  // it was disarmed
  EXPECT_TRUE(eventually([&fires] { return fires.load() == 2; }));
}

TEST_F(ExecutorWatchTest, UnwatchedFdNeverFires) {
  std::atomic<int> fires{0};
  const int id = executor_->watch(fds_[0], POLLIN,
                                  [&fires](short) { fires.fetch_add(1); });
  EXPECT_TRUE(executor_->unwatch(id));
  EXPECT_FALSE(executor_->unwatch(id));  // a second unwatch is a miss
  EXPECT_FALSE(executor_->rearm(id, POLLIN));
  poke();
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(fires.load(), 0);
}

TEST_F(ExecutorWatchTest, UnwatchReportsWhetherTheCallbackWillRun) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  // Armed and not ready: rearm only takes the new mask, and unwatch
  // true means the callback never runs.
  std::atomic<int> silent{0};
  const int armed = executor_->watch(sv[0], POLLIN,
                                     [&silent](short) { silent.fetch_add(1); });
  EXPECT_FALSE(executor_->rearm(armed, POLLIN));
  EXPECT_TRUE(executor_->unwatch(armed));
  ASSERT_EQ(::send(sv[1], "x", 1, 0), 1);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(silent.load(), 0);

  // The mask taken by an armed watch is the one that fires: POLLOUT on a
  // writable socket. Once fired, unwatch reports false and the task runs
  // exactly once.
  std::atomic<int> fires{0};
  std::atomic<short> revents{0};
  const int fired = executor_->watch(sv[1], POLLIN, [&](short re) {
    revents.store(re);
    fires.fetch_add(1);
  });
  EXPECT_FALSE(executor_->rearm(fired, POLLOUT));
  ASSERT_TRUE(eventually([&fires] { return fires.load() == 1; }));
  EXPECT_TRUE(revents.load() & POLLOUT);
  EXPECT_FALSE(executor_->unwatch(fired));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(fires.load(), 1);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_F(ExecutorWatchTest, AnUnwatchedFdIsReleasedAtClose) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  const int id = executor_->watch(sv[0], POLLIN, [](short) {});
  std::this_thread::sleep_for(20ms);  // the event thread now waits on sv[0]
  // Nothing wakes that wait, yet once unwatch() returns the event thread
  // must hold no reference to the socket: closing it reaches the peer.
  EXPECT_TRUE(executor_->unwatch(id));
  ::close(sv[0]);
  char c;
  EXPECT_EQ(::recv(sv[1], &c, 1, MSG_DONTWAIT), 0);  // EOF, not EAGAIN
  ::close(sv[1]);
}

}  // namespace
}  // namespace gns::exec
