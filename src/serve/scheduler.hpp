#pragma once

/// \file scheduler.hpp
/// JobScheduler: bounded-queue rollout inference on the task-graph
/// executor.
///
/// Execution model: the scheduler owns no threads. submit() enqueues and
/// schedules a drain task on the global work-stealing executor; the drain
/// pops jobs (up to `workers` concurrent rollout chains) and runs each
/// rollout as a continuation chain — one executor task per step, each
/// under its own NoGradGuard, re-checking deadline and cancellation
/// before every step. Batch-window coalescing becomes a timer-wheel task:
/// an underfull batch parks as a PendingBatch whose timer fires at
/// min(window end, earliest member deadline); later drains top it up and
/// dispatch early when it fills, and the timer-fire path sweeps cancelled
/// or expired members out BEFORE dispatch, so a job cancelled while its
/// batch window is pending never executes. Queued-job deadlines are timer
/// cancellations too: the timer resolves a still-queued job
/// DeadlineExceeded the moment its budget lapses, and is cancelled when
/// the job dispatches.
///
/// submit() never blocks — when the queue is full the returned future is
/// already resolved with JobStatus::QueueFull (backpressure is the
/// *client's* problem, the scheduler never buffers unboundedly). A
/// runaway request occupies a chain slot for at most one extra step past
/// its budget.
///
/// Batched dispatch (max_batch > 1): a drain that pops a job also pulls up
/// to max_batch-1 more queued jobs for the *same model* (skipping
/// incompatible ones, which stay queued for other chains), waiting at most
/// batch_window_us for stragglers — but never past the earliest member
/// deadline. The members run as ONE block-diagonal rollout
/// (core::BatchedSimulator): one GNS forward per step for the whole batch.
/// Per-member deadlines/cancellation still hold — an expired or cancelled
/// member is compacted out between steps with its partial frames while the
/// rest keep batching. Dispatch sizes land in the `<prefix>.batch_size`
/// histogram.
///
/// Chains share model weights through registry handles but build all
/// per-job tensors locally; the autograd tape is thread-local and disabled
/// during serving, so concurrent — and batched — rollouts of one model are
/// bit-identical to running them serially (guarded by test_serve and
/// test_batching).
///
/// Rollout caching (optional, SchedulerConfig::cache): submit() consults
/// the content-addressed store::RolloutCache before queueing. A hit
/// resolves the future immediately — bitwise the frames a live rollout
/// would produce — without touching the executor; a miss with an
/// identical request already in flight joins that flight (one compute for
/// N concurrent duplicates); otherwise the job leads: it queues normally
/// and its terminal resolve() inserts a complete rollout into the cache
/// (or abandons the flight on failure, so followers never hang). Because
/// cache keys include the registry's weight digest, a hot reload
/// naturally invalidates every key of the reloaded model. Schedulers must
/// not share one RolloutCache instance: follower callbacks assume the
/// flight's leader lives in the same scheduler.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "serve/job.hpp"
#include "serve/registry.hpp"
#include "serve/stats.hpp"
#include "store/rollout_cache.hpp"

namespace gns::serve {

struct SchedulerConfig {
  /// Maximum number of concurrent rollout chains (>= 1). Advertised in
  /// HELLO capability replies as the backend's worker count.
  int workers = 4;
  int queue_capacity = 64;  ///< max queued (not yet running) jobs (>= 1)
  /// Max jobs coalesced into one block-diagonal rollout; 1 disables
  /// batching (one job per chain).
  int max_batch = 1;
  /// How long an underfull batch waits for more same-model jobs to
  /// arrive, in microseconds. 0 = dispatch immediately with whatever is
  /// already queued. The wait is always capped by the earliest member
  /// deadline.
  double batch_window_us = 0.0;
  /// MetricsRegistry prefix for this scheduler's ServerStats. Give every
  /// concurrently-live scheduler a distinct prefix.
  std::string stats_prefix = "serve";
  /// Optional content-addressed rollout cache (see file comment). nullptr
  /// disables caching entirely — every submit takes the compute path.
  std::shared_ptr<store::RolloutCache> cache;
};

/// submit()'s return: the job id (usable with cancel()) and the future
/// that resolves to the job's terminal RolloutResult.
struct JobTicket {
  std::uint64_t id = 0;
  std::future<RolloutResult> result;
};

class JobScheduler {
 public:
  /// The registry must outlive the scheduler. Stats are owned here and
  /// readable at any time via stats().
  JobScheduler(std::shared_ptr<ModelRegistry> registry,
               SchedulerConfig config = {});

  /// Drains the queue (shutdown(true)) and waits for every task and timer
  /// this scheduler put on the executor.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a job. Never blocks: a full queue, a stopped scheduler, or
  /// an already-expired deadline (request.deadline_ms < 0) resolves the
  /// future immediately with QueueFull / ShutDown / DeadlineExceeded.
  [[nodiscard]] JobTicket submit(RolloutRequest request);

  /// Requests cancellation. A queued job resolves Cancelled without
  /// running; a running job stops after its current step and returns the
  /// frames computed so far. Returns false when the job is unknown or
  /// already resolved.
  bool cancel(std::uint64_t job_id);

  /// Stops dispatching new jobs (running chains finish). Queued jobs keep
  /// their place and their deadlines keep ticking. Used for deterministic
  /// tests and drain-for-reload operations.
  void pause();
  void resume();

  /// Stops accepting new jobs. With drain=true chains finish the queue
  /// first; with drain=false queued jobs resolve ShutDown immediately.
  /// Idempotent; the destructor calls shutdown(true).
  void shutdown(bool drain = true);

  [[nodiscard]] int queue_depth() const;
  /// Concurrency cap: max concurrent rollout chains. Advertised in HELLO
  /// capability replies.
  [[nodiscard]] int workers() const { return config_.workers; }
  [[nodiscard]] ServerStats& stats() { return stats_; }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  /// The model registry this scheduler executes against — what a HELLO
  /// capability reply advertises as served models.
  [[nodiscard]] const std::shared_ptr<ModelRegistry>& registry() const {
    return registry_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    RolloutRequest request;
    std::promise<RolloutResult> promise;
    std::shared_ptr<std::atomic<bool>> cancelled;
    std::uint64_t id = 0;
    Clock::time_point submitted;
    Clock::time_point deadline;  ///< time_point::max() when none
    bool has_deadline = false;
    /// When a drain pulled this job off the queue (epoch default until
    /// then). Splits the pre-dispatch wait into queue_us (submitted ->
    /// dequeued) and batch_wait_us (dequeued -> dispatch) in the result's
    /// PhaseTimeline.
    Clock::time_point dequeued{};
    /// Microseconds submit() spent on the cache consult for this job.
    double cache_us = 0.0;
    /// Set when this job leads a cache flight: resolve() must call
    /// cache complete() (all steps present) or abandon() (anything else).
    std::uint64_t cache_key = 0;
    bool has_cache_key = false;
  };

  /// What submit()'s cache consult decided.
  enum class CacheOutcome {
    Resolved,  ///< hit or joined a flight: the promise is owned elsewhere
    Enqueue,   ///< miss (job leads) or cache not applicable: queue normally
  };

  /// An underfull batch parked on the executor waiting out its coalescing
  /// window. Later drains top it up; the timer (or an early-dispatch path
  /// that cancelled the timer) dispatches it.
  struct PendingBatch {
    std::vector<Job> jobs;
    std::string model;
    exec::Executor::TimerId timer = 0;
  };
  /// One in-flight rollout chain: jobs, per-member results, and the
  /// incremental rollout advanced one step per task.
  struct ChainState;

  /// Moves up to max_batch same-model jobs out of queue_ into `batch`,
  /// stamping dequeued and cancelling their queued-deadline timers.
  /// Requires mutex_ held.
  void take_compatible_locked(std::vector<Job>& batch,
                              const std::string& model);
  /// Ensures one drain task is queued on the executor. Requires mutex_.
  void schedule_drain_locked();
  /// Drain task body: tops up pending batches, then pops jobs into new
  /// dispatch chains while chain slots (config_.workers) are free.
  void drain_ready();
  /// Moves the pending batch keyed by `leader_id` to execution. Sweeps
  /// cancelled/expired members BEFORE dispatch — a job cancelled while
  /// its batch-window timer was pending resolves without ever executing.
  void dispatch_pending(std::uint64_t leader_id);
  /// Builds a ChainState for `jobs` and submits its first task.
  void start_chain(std::vector<Job> jobs);
  /// One chain task: preflight on the first call, then one rollout step;
  /// resubmits itself until the rollout finishes, then finalizes.
  void chain_step(const std::shared_ptr<ChainState>& chain);
  void finish_chain(const std::shared_ptr<ChainState>& chain);
  /// Submits fn with task accounting (tasks_inflight_ / idle_cv_), so
  /// shutdown can quiesce before the scheduler is destroyed. Requires
  /// mutex_ held.
  void spawn_task_locked(std::function<void()> fn);
  /// Timer with the same accounting; cancel via cancel_timer_locked.
  exec::Executor::TimerId schedule_timer_locked(
      std::chrono::steady_clock::time_point due, std::function<void()> fn);
  /// True iff the timer callback will never run (accounting undone here).
  bool cancel_timer_locked(exec::Executor::TimerId id);
  /// Converts every parked PendingBatch whose timer can still be cancelled
  /// into an immediate dispatch task (pause/shutdown: stop waiting out
  /// batch windows). Requires mutex_ held.
  void flush_pending_locked();
  /// Arms the queued-deadline timer for job `id` (requires mutex_).
  void arm_deadline_timer_locked(std::uint64_t id, Clock::time_point due);
  /// Cancels and forgets the queued-deadline timer of job `id`, if any.
  void cancel_deadline_timer_locked(std::uint64_t id);
  /// Deadline-timer body: resolves job `id` DeadlineExceeded iff it is
  /// still sitting in queue_.
  void expire_queued(std::uint64_t id);
  void resolve(Job&& job, RolloutResult result);
  /// Cache hit / single-flight join / leadership claim for `job`. Called
  /// without mutex_ held; takes it briefly for bookkeeping. On Resolved
  /// the job's promise has been moved out (hit: already fulfilled;
  /// joined: fulfilled by the leader's terminal callback).
  [[nodiscard]] CacheOutcome consult_cache(Job& job);

  std::shared_ptr<ModelRegistry> registry_;
  SchedulerConfig config_;
  ServerStats stats_;

  mutable std::mutex mutex_;
  std::deque<Job> queue_;
  std::uint64_t next_id_ = 1;
  bool paused_ = false;
  bool stopping_ = false;  ///< no new submissions

  /// Cancellation flags of live (queued or running) jobs, so cancel() can
  /// reach a job that a drain already popped.
  std::map<std::uint64_t, std::shared_ptr<std::atomic<bool>>> live_flags_;

  // ---- executor tasks and timers (all guarded by mutex_) ----
  bool drain_scheduled_ = false;
  int active_chains_ = 0;      ///< dispatch chains + parked pending batches
  int tasks_inflight_ = 0;     ///< executor tasks + armed timers alive
  std::condition_variable idle_cv_;  ///< signaled as the above drain to 0
  /// Parked underfull batches, keyed by leader job id.
  std::map<std::uint64_t, std::shared_ptr<PendingBatch>> pending_batches_;
  /// Queued-job deadline timers, job id -> timer id.
  std::map<std::uint64_t, exec::Executor::TimerId> deadline_timers_;
};

}  // namespace gns::serve
