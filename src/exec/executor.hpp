#pragma once

/// \file executor.hpp
/// Work-stealing task-graph executor: the single thread pool behind
/// serving, per-step compute parallelism, and net I/O (DESIGN.md §13).
///
/// A fixed worker set (GNS_EXEC_WORKERS, default hardware concurrency)
/// each owns a Chase-Lev deque; external threads submit through a
/// mutex-protected injection queue, workers push continuations onto their
/// own deque and steal from peers when idle. Timers ride a hashed
/// TimerWheel whose fired callbacks are submitted as ordinary tasks, so
/// deadlines and batch windows share cores with compute instead of
/// holding threads.
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
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

#include "exec/steal_deque.hpp"
#include "exec/timer_wheel.hpp"

namespace gns::exec {

/// Always true: the executor is the only threading model. Kept as a query
/// so configuration stamps can report it.
[[nodiscard]] inline bool enabled() { return true; }

/// Worker count the global executor will use: GNS_EXEC_WORKERS, else
/// std::thread::hardware_concurrency().
int default_workers();

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
  using TimerId = TimerWheel::TimerId;

  /// workers <= 0 means default_workers().
  explicit Executor(int workers = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs fn on some worker, eventually. Never blocks on task execution
  /// (only on the injection-queue mutex). Safe from worker threads (the
  /// task lands on the calling worker's own deque) and from timers.
  void submit(std::function<void()> fn);

  /// Timer facade over the owned TimerWheel; fired callbacks are
  /// submitted as tasks. cancel_timer true => the callback will never run.
  TimerId schedule_after(double delay_ms, std::function<void()> fn);
  TimerId schedule_at(TimerWheel::Clock::time_point due,
                      std::function<void()> fn);
  bool cancel_timer(TimerId id);

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

  std::unique_ptr<TimerWheel> wheel_;  // lazily created on first timer
  std::mutex wheel_m_;
};

}  // namespace gns::exec
