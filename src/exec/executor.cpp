#include "exec/executor.hpp"

#include <chrono>
#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gns::exec {

namespace {

int env_int(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  const int n = std::atoi(v);
  return n > 0 ? n : 0;
}

// Thread-local identity of executor workers, for submit()'s own-deque
// fast path and parallel_for's caller-participation logic.
thread_local Executor* t_owner = nullptr;
thread_local int t_worker_index = -1;

obs::Counter& tasks_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.tasks");
  return c;
}
obs::Counter& steals_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.steals");
  return c;
}
obs::Counter& injected_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.injected");
  return c;
}
obs::Gauge& depth_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("exec.queue_depth");
  return g;
}
obs::Gauge& workers_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge("exec.workers");
  return g;
}
obs::Counter& busy_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.busy_us");
  return c;
}

}  // namespace

int default_workers() {
  int n = env_int("GNS_EXEC_WORKERS");
  if (n == 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;
  return n;
}

Executor::Executor(int workers) {
  if (workers <= 0) workers = default_workers();
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.push_back(std::make_unique<Worker>());
  for (int i = 0; i < workers; ++i)
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { worker_loop(i); });
  workers_gauge().set(static_cast<double>(workers));
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lk(sleep_m_);
    stop_.store(true, std::memory_order_release);
    ++work_epoch_;
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  // Queued-but-unrun tasks are dropped, not run: at teardown their
  // captures may already be destroyed. Components quiesce before
  // destroying themselves (JobScheduler::shutdown waits for its chains).
  std::lock_guard<std::mutex> lk(injection_m_);
  for (Task* t : injection_) delete t;
  injection_.clear();
  for (auto& w : workers_)
    while (Task* t = w->deque.pop_bottom()) delete t;
}

void Executor::submit(std::function<void()> fn) {
  Task* task = new Task{std::move(fn)};
  submitted_.fetch_add(1, std::memory_order_relaxed);
  depth_gauge().set(static_cast<double>(
      submitted_.load(std::memory_order_relaxed) -
      executed_.load(std::memory_order_relaxed)));
  if (t_owner == this &&
      workers_[static_cast<std::size_t>(t_worker_index)]->deque.push_bottom(
          task)) {
    // Fast path: continuation lands on the submitting worker's own deque.
  } else {
    {
      std::lock_guard<std::mutex> lk(injection_m_);
      injection_.push_back(task);
    }
    injected_.fetch_add(1, std::memory_order_relaxed);
    injected_counter().add(1);
  }
  wake_workers(1);
}

void Executor::wake_workers(int count) {
  // The epoch bump must happen under sleep_m_: a worker pins the epoch,
  // takes a last look at the queues, then sleeps on "epoch changed" — the
  // lock makes that re-check and this bump totally ordered, so a task
  // submitted in the gap can never be missed (no lost-wakeup window).
  {
    std::lock_guard<std::mutex> lk(sleep_m_);
    ++work_epoch_;
  }
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;
  if (count == 1)
    sleep_cv_.notify_one();
  else
    sleep_cv_.notify_all();
}

Executor::Task* Executor::pop_injection() {
  std::lock_guard<std::mutex> lk(injection_m_);
  if (injection_.empty()) return nullptr;
  Task* t = injection_.front();
  injection_.pop_front();
  return t;
}

Executor::Task* Executor::try_acquire(int index, std::uint32_t& rng) {
  Task* t =
      workers_[static_cast<std::size_t>(index)]->deque.pop_bottom();
  if (t != nullptr) return t;
  t = pop_injection();
  if (t != nullptr) return t;
  const int n = workers();
  if (n <= 1) return nullptr;
  // Two sweeps over peers starting at a per-worker pseudo-random victim:
  // a failed CAS under contention is a retry, not emptiness.
  for (int sweep = 0; sweep < 2; ++sweep) {
    rng = rng * 1664525u + 1013904223u;
    const int start = static_cast<int>(rng % static_cast<std::uint32_t>(n));
    for (int k = 0; k < n; ++k) {
      const int victim = (start + k) % n;
      if (victim == index) continue;
      t = workers_[static_cast<std::size_t>(victim)]->deque.steal_top();
      if (t != nullptr) {
        stolen_.fetch_add(1, std::memory_order_relaxed);
        steals_counter().add(1);
        return t;
      }
    }
  }
  return nullptr;
}

void Executor::run_task(Task* task) {
  const auto start = std::chrono::steady_clock::now();
  task->fn();
  delete task;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  busy_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                     std::memory_order_relaxed);
  busy_counter().add(static_cast<std::uint64_t>(ns / 1000));
  executed_.fetch_add(1, std::memory_order_relaxed);
  tasks_counter().add(1);
}

void Executor::worker_loop(int index) {
  t_owner = this;
  t_worker_index = index;
  std::uint32_t rng =
      0x9e3779b9u ^ (static_cast<std::uint32_t>(index) * 2654435761u);
  while (!stop_.load(std::memory_order_acquire)) {
    Task* t = try_acquire(index, rng);
    if (t != nullptr) {
      run_task(t);
      continue;
    }
    std::unique_lock<std::mutex> lk(sleep_m_);
    const std::uint64_t epoch = work_epoch_;
    lk.unlock();
    // Last look with the epoch pinned: anything submitted after this scan
    // bumps the epoch and the predicate below refuses to sleep.
    t = try_acquire(index, rng);
    if (t != nullptr) {
      run_task(t);
      continue;
    }
    lk.lock();
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait_for(lk, std::chrono::milliseconds(50), [&] {
      return stop_.load(std::memory_order_acquire) || work_epoch_ != epoch;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
  t_owner = nullptr;
  t_worker_index = -1;
}

bool Executor::on_worker_thread() const { return t_owner == this; }

Executor::TimerId Executor::schedule_after(double delay_ms,
                                           std::function<void()> fn) {
  return schedule_at(TimerWheel::Clock::now() +
                         std::chrono::duration_cast<TimerWheel::Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 delay_ms < 0.0 ? 0.0 : delay_ms)),
                     std::move(fn));
}

Executor::TimerId Executor::schedule_at(TimerWheel::Clock::time_point due,
                                        std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(wheel_m_);
    if (!wheel_)
      wheel_ = std::make_unique<TimerWheel>(
          [this](std::function<void()> f) { submit(std::move(f)); });
  }
  return wheel_->schedule_at(due, std::move(fn));
}

bool Executor::cancel_timer(TimerId id) {
  std::unique_lock<std::mutex> lk(wheel_m_);
  if (!wheel_) return false;
  TimerWheel* wheel = wheel_.get();
  lk.unlock();
  return wheel->cancel(id);
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  s.workers = workers();
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.stolen = stolen_.load(std::memory_order_relaxed);
  s.injected = injected_.load(std::memory_order_relaxed);
  s.pending = s.submitted >= s.executed ? s.submitted - s.executed : 0;
  s.busy_seconds =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

Executor& Executor::global() {
  // Touch the registries first so their statics outlive the executor and
  // late tasks can still bump counters during teardown.
  (void)obs::MetricsRegistry::global();
  static Executor* instance = new Executor(default_workers());
  return *instance;
}

}  // namespace gns::exec
