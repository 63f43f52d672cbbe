#pragma once

/// \file executor.hpp
/// Work-stealing task-graph executor: the single thread pool behind
/// serving, per-step compute parallelism, and net I/O (DESIGN.md §13).
///
/// A fixed worker set (GNS_EXEC_WORKERS, default hardware concurrency)
/// each owns a Chase-Lev deque; external threads submit through a
/// mutex-protected injection queue, workers push continuations onto their
/// own deque and steal from peers when idle. With at least two workers
/// and at least one allowed CPU per worker, each worker is pinned to its
/// own CPU, so a woken worker is never queued behind the thread that woke
/// it (DESIGN.md §13). Besides its workers the executor runs one
/// EventThread, which waits on every timer and every fd watch at once and
/// submits what comes due as ordinary tasks, so deadlines, batch windows
/// and socket readiness share cores with compute instead of holding
/// threads.
///
/// The program runs all of its parallel work here: the scheduler's
/// rollout chains, the net server's connection tasks, and every parallel
/// loop (exec::parallel_for / parallel_jobs).
///
/// Determinism: the executor itself adds none of the usual hazards — all
/// parallel loops routed through parallel_for/parallel_jobs use a
/// decomposition that depends only on problem size (never worker count),
/// and every parallel loop either writes disjoint outputs per iteration
/// or reduces over fixed-order lanes, so results are bitwise identical at
/// any GNS_EXEC_WORKERS (see DESIGN.md §13 for the argument).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/event_thread.hpp"
#include "exec/steal_deque.hpp"

namespace gns::exec {

/// Always true: the executor is the only threading model. Kept as a query
/// so configuration stamps can report it.
[[nodiscard]] inline bool enabled() { return true; }

/// Worker count the global executor will use: GNS_EXEC_WORKERS, else
/// std::thread::hardware_concurrency().
int default_workers();

/// `ms` milliseconds (clamped at 0) as a duration of the executor's clock.
[[nodiscard]] inline EventThread::Clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<EventThread::Clock::duration>(
      std::chrono::duration<double, std::milli>(ms < 0.0 ? 0.0 : ms));
}

/// Point-in-time executor counters for benches and the stats endpoint.
struct ExecutorStats {
  int workers = 0;
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;
  std::uint64_t stolen = 0;    ///< tasks acquired via steal_top
  std::uint64_t injected = 0;  ///< tasks that went through the global queue
  std::uint64_t pending = 0;   ///< submitted - executed (queue depth)
  double busy_seconds = 0.0;   ///< sum of task run time across workers
};

class Executor {
 public:
  using Clock = EventThread::Clock;
  using TimerId = EventThread::TimerId;

  /// workers <= 0 means default_workers().
  explicit Executor(int workers = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs fn on some worker, eventually. Never blocks on task execution
  /// (only on the injection-queue mutex). Safe from worker threads (the
  /// task lands on the calling worker's own deque) and from timers.
  void submit(std::function<void()> fn);

  /// Timers on the event thread; a due callback is submitted as a task,
  /// never before its due time. cancel_timer true => the callback will
  /// never run. cancel_timer never waits on a callback, so callers may
  /// hold their own locks.
  TimerId schedule_after(double delay_ms, std::function<void()> fn);
  TimerId schedule_at(Clock::time_point due, std::function<void()> fn);
  bool cancel_timer(TimerId id);

  /// Oneshot fd watches on the event thread, with the timers' contract: a
  /// ready watch is disarmed and its callback submitted as a task with the
  /// poll() revents (POLLIN/POLLOUT/POLLERR/POLLHUP; POLLNVAL at once for
  /// an fd the kernel cannot watch, such as one not open or a regular
  /// file). watch() returns an id (> 0) armed for `events`. rearm() true
  /// => the watch was disarmed and its callback will run once more (an
  /// armed watch only takes the new mask). unwatch() true => the watch was
  /// armed and its callback will never run. Neither waits on a callback.
  /// Unwatch before closing the fd; once unwatch() returns, nothing holds
  /// the fd.
  int watch(int fd, short events, std::function<void(short)> fn);
  bool rearm(int id, short events);
  bool unwatch(int id);

  int workers() const { return static_cast<int>(workers_.size()); }
  ExecutorStats stats() const;

  /// True when the calling thread is one of this executor's workers.
  bool on_worker_thread() const;

  /// Process-wide executor, built on first use with default_workers().
  /// Never destroyed (tasks may reference it from atexit-ordered code).
  static Executor& global();

 private:
  struct Task {
    std::function<void()> fn;
  };
  struct Worker {
    StealDeque<Task> deque;
    std::thread thread;
  };

  friend struct ParallelAccess;  // parallel_for internals

  void worker_loop(int index);
  Task* try_acquire(int index, std::uint32_t& rng);
  Task* pop_injection();
  void run_task(Task* task);
  void wake_workers(int count);

  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex injection_m_;
  std::deque<Task*> injection_;

  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
  std::uint64_t work_epoch_ = 0;  // guarded by sleep_m_
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> busy_ns_{0};

  EventThread events_;
};

/// An owner's executor callbacks that are armed or submitted and not yet
/// finished, so the owner can wait until none can run. Each is counted
/// (add) before it is armed or submitted, and uncounted (done) when its
/// task ends, or when unwatch()/cancel_timer() returns true.
class TaskCount {
 public:
  void add() {
    std::lock_guard<std::mutex> lock(m_);
    ++count_;
  }
  void done() {
    std::lock_guard<std::mutex> lock(m_);
    if (--count_ == 0) idle_.notify_all();
  }
  /// Blocks until the count is zero.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(m_);
    idle_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex m_;
  std::condition_variable idle_;
  int count_ = 0;
};

}  // namespace gns::exec
