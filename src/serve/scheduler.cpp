#include "serve/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "core/batched_rollout.hpp"
#include "core/features.hpp"
#include "obs/trace.hpp"
#include "serve/cache_key.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace gns::serve {

namespace {

/// Validated per-job rollout inputs.
struct MemberInputs {
  core::Window window;
  core::SceneContext context;
};

/// Parses and validates one request against the model's feature config.
/// Throws std::runtime_error on malformed input (typed to ExecutionError by
/// the callers).
MemberInputs build_member_inputs(const RolloutRequest& req,
                                 const core::FeatureConfig& features) {
  if (req.steps <= 0) throw std::runtime_error("steps must be positive");
  if (static_cast<int>(req.window.size()) != features.window_size())
    throw std::runtime_error(
        "window must hold " + std::to_string(features.window_size()) +
        " frames, got " + std::to_string(req.window.size()));
  const std::size_t frame_len = req.window.front().size();
  if (frame_len == 0 || frame_len % static_cast<std::size_t>(features.dim))
    throw std::runtime_error("frame length must be a multiple of dim");
  for (const auto& frame : req.window) {
    if (frame.size() != frame_len)
      throw std::runtime_error("window frames differ in length");
  }
  const int n = static_cast<int>(frame_len) / features.dim;

  MemberInputs inputs;
  inputs.window.reserve(req.window.size());
  for (const auto& frame : req.window)
    inputs.window.push_back(core::frame_to_tensor(frame, features.dim));

  if (features.material_feature)
    inputs.context.material = ad::Tensor::scalar(req.material);
  if (features.static_node_attrs > 0) {
    if (static_cast<int>(req.node_attrs.size()) !=
        n * features.static_node_attrs)
      throw std::runtime_error("node_attrs size mismatch");
    inputs.context.node_attrs = ad::Tensor::from_vector(
        n, features.static_node_attrs, req.node_attrs);
  }
  return inputs;
}

/// GNS_SLOW_REQUEST_MS: requests whose submit-to-resolve time meets the
/// threshold get one structured warning line with their trace id and phase
/// breakdown. Unset/empty disables; parsed once.
double slow_request_threshold_ms() {
  static const double threshold = [] {
    const char* env = std::getenv("GNS_SLOW_REQUEST_MS");
    if (env == nullptr || *env == '\0') return -1.0;
    return std::atof(env);
  }();
  return threshold;
}

void log_slow_request(const RolloutRequest& request,
                      const RolloutResult& result) {
  char trace_hex[24];
  std::snprintf(trace_hex, sizeof(trace_hex), "0x%016llx",
                static_cast<unsigned long long>(result.trace_id));
  const PhaseTimeline& p = result.phases;
  GNS_WARN("slow_request trace_id="
           << trace_hex << " job_id=" << result.job_id << " model="
           << request.model << " steps=" << request.steps << " status="
           << to_string(result.status) << " cache="
           << to_string(result.cache_outcome) << " total_ms="
           << result.total_ms << " decode_us=" << p.decode_us << " cache_us="
           << p.cache_us << " queue_us=" << p.queue_us << " batch_wait_us="
           << p.batch_wait_us << " compute_us=" << p.compute_us);
}

}  // namespace

JobScheduler::JobScheduler(std::shared_ptr<ModelRegistry> registry,
                           SchedulerConfig config)
    : registry_(std::move(registry)),
      config_(std::move(config)),
      stats_(config_.stats_prefix) {
  GNS_CHECK_MSG(registry_ != nullptr, "JobScheduler needs a registry");
  GNS_CHECK_MSG(config_.workers >= 1, "JobScheduler needs >= 1 worker");
  GNS_CHECK_MSG(config_.queue_capacity >= 1,
                "JobScheduler needs a positive queue capacity");
  GNS_CHECK_MSG(config_.max_batch >= 1,
                "JobScheduler max_batch must be >= 1");
  GNS_CHECK_MSG(config_.batch_window_us >= 0.0,
                "JobScheduler batch_window_us must be >= 0");
}

JobScheduler::~JobScheduler() { shutdown(true); }

JobTicket JobScheduler::submit(RolloutRequest request,
                               std::function<void()> on_resolved) {
  GNS_TRACE_SCOPE_T("serve.scheduler.submit", request.trace_id);
  Job job;
  job.request = std::move(request);
  job.on_resolved = std::move(on_resolved);
  job.cancelled = std::make_shared<std::atomic<bool>>(false);
  job.submitted = Clock::now();
  job.has_deadline = job.request.deadline_ms > 0.0;
  job.deadline = job.has_deadline
                     ? job.submitted + exec::from_ms(job.request.deadline_ms)
                     : Clock::time_point::max();

  JobTicket ticket;
  ticket.result = job.promise.get_future();

  JobStatus rejection = JobStatus::Ok;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.id = next_id_++;
    ticket.id = job.id;
    if (stopping_) {
      rejection = JobStatus::ShutDown;
    } else if (job.request.deadline_ms < 0.0) {
      // An already-expired deadline (deadline propagation upstream can eat
      // the whole budget before submit) is rejected here: such a job must
      // never occupy a queue or batch slot, and must not be mistaken for
      // an unbounded one.
      rejection = JobStatus::DeadlineExceeded;
    }
  }

  if (rejection == JobStatus::Ok && config_.cache != nullptr &&
      consult_cache(job) == CacheOutcome::Resolved) {
    return ticket;  // hit (already fulfilled) or joined an in-flight twin
  }

  if (rejection == JobStatus::Ok) {
    std::lock_guard<std::mutex> lock(mutex_);
    // Re-check: the cache consult ran without the lock held.
    if (stopping_) {
      rejection = JobStatus::ShutDown;
    } else if (static_cast<int>(queue_.size()) >= config_.queue_capacity) {
      rejection = JobStatus::QueueFull;
    } else {
      live_flags_[job.id] = job.cancelled;
      const std::uint64_t id = job.id;
      const bool has_deadline = job.has_deadline;
      const Clock::time_point deadline = job.deadline;
      queue_.push_back(std::move(job));
      stats_.on_submitted(static_cast<int>(queue_.size()));
      // Deadline expiry is a timer, not a poll: a still-queued job
      // resolves the moment its budget lapses. Cancelled when the job
      // dispatches (or at shutdown).
      if (has_deadline) arm_deadline_timer_locked(id, deadline);
      schedule_drain_locked();
    }
  }
  if (rejection == JobStatus::Ok) return ticket;

  // Rejection path: resolve immediately, never block the caller. A job
  // that claimed flight leadership releases the flight in resolve(), so
  // its followers fail fast instead of waiting forever.
  RolloutResult result;
  result.status = rejection;
  switch (rejection) {
    case JobStatus::QueueFull:
      result.error = "scheduler queue full";
      break;
    case JobStatus::DeadlineExceeded:
      result.error = "deadline already expired at submit";
      break;
    default:
      result.error = "scheduler shutting down";
      break;
  }
  resolve(std::move(job), std::move(result));
  return ticket;
}

JobScheduler::CacheOutcome JobScheduler::consult_cache(Job& job) {
  if (job.request.steps <= 0) return CacheOutcome::Enqueue;
  GNS_TRACE_SCOPE_T("serve.scheduler.cache_consult", job.request.trace_id);
  Timer cache_timer;
  const ModelRegistry::Resolved model = registry_->resolve(job.request.model);
  if (model.simulator == nullptr) {
    return CacheOutcome::Enqueue;  // chain_step() will type ModelNotFound
  }
  const std::uint64_t key = compute_cache_key(job.request, model.digest,
                                              model.simulator->features());
  job.cache_key = key;

  // A joined follower's callback owns the job; Hit and Lead drop the
  // callback and take the job back. Only a leader runs the rollout, so
  // the seed window and attributes stay here, not in a waiting follower.
  std::vector<std::vector<double>> window = std::move(job.request.window);
  std::vector<double> node_attrs = std::move(job.request.node_attrs);
  auto follower = std::make_shared<Job>(std::move(job));

  // Register the cancel flag BEFORE the join attempt: the leader can
  // finish on another thread the instant lookup_or_join returns, and its
  // callback erases this registration. (Hit/Lead paths clean up below —
  // for Lead the enqueue overwrites the same entry idempotently.)
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_flags_[follower->id] = follower->cancelled;
  }

  store::FollowerFn on_done = [this, follower](store::Frames frames,
                                               bool complete, int code,
                                               const std::string& error) {
    Job& joined = *follower;
    RolloutResult result;
    result.cached = true;
    result.cache_outcome = serve::CacheOutcome::Joined;
    result.frames = std::move(frames);
    if (joined.cancelled->load(std::memory_order_relaxed)) {
      result.status = JobStatus::Cancelled;
      result.frames.clear();  // a cancelled job returns no frames it ran for
    } else if (joined.has_deadline && Clock::now() > joined.deadline) {
      result.status = JobStatus::DeadlineExceeded;
      result.error = "deadline exceeded while coalesced onto an identical "
                     "in-flight rollout";
    } else if (complete) {
      result.status = JobStatus::Ok;
    } else {
      result.status = static_cast<JobStatus>(code);
      result.error = error;
    }
    // A follower's whole life is queue wait.
    joined.dequeued = Clock::now();
    result.queue_ms = std::chrono::duration<double, std::milli>(
                          joined.dequeued - joined.submitted)
                          .count();
    resolve(std::move(joined), std::move(result));
  };

  // Stamped before the join attempt: a joined follower's callback can fire
  // on the leader's thread the instant lookup_or_join returns, so writing
  // the job afterwards would race.
  follower->cache_us = cache_timer.millis() * 1e3;

  store::RolloutCache::Lookup found = config_.cache->lookup_or_join(
      key, follower->request.steps, std::move(on_done));

  if (found.outcome == store::RolloutCache::Outcome::Joined) {
    stats_.on_submitted(queue_depth());  // accepted work, not queued work
    return CacheOutcome::Resolved;
  }
  job = std::move(*follower);
  job.cache_us = cache_timer.millis() * 1e3;
  if (found.outcome == store::RolloutCache::Outcome::Lead) {
    job.request.window = std::move(window);
    job.request.node_attrs = std::move(node_attrs);
    job.has_cache_key = true;
    return CacheOutcome::Enqueue;
  }
  RolloutResult result;
  result.status = JobStatus::Ok;
  result.cached = true;
  result.cache_outcome = serve::CacheOutcome::Hit;
  result.frames = std::move(found.frames);
  stats_.on_submitted(queue_depth());
  resolve(std::move(job), std::move(result));
  return CacheOutcome::Resolved;
}

bool JobScheduler::cancel(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_flags_.find(job_id);
  if (it == live_flags_.end()) return false;
  it->second->store(true, std::memory_order_relaxed);
  return true;
}

void JobScheduler::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
  // A pause interrupts the coalescing wait: batches already parked
  // dispatch immediately (a popped job runs during pause; only queued
  // jobs hold their place).
  flush_pending_locked();
}

void JobScheduler::resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = false;
  if (!queue_.empty()) schedule_drain_locked();
}

void JobScheduler::shutdown(bool drain) {
  std::deque<Job> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    paused_ = false;  // a paused scheduler must still drain and exit
    if (!drain) orphans.swap(queue_);
    // Queued-deadline timers would stall quiescence below (a 30 s budget
    // keeps its timer armed for 30 s); chains re-check expiry at dispatch
    // anyway, so cancel them all.
    for (auto& entry : deadline_timers_) cancel_timer_locked(entry.second);
    deadline_timers_.clear();
    flush_pending_locked();  // stop waiting out batch windows
    if (!queue_.empty()) schedule_drain_locked();
  }
  for (Job& job : orphans) {
    RolloutResult result;
    result.status = JobStatus::ShutDown;
    result.error = "scheduler shut down before execution";
    resolve(std::move(job), std::move(result));
  }
  // Quiesce: every chain, parked batch, drain task, and armed timer is
  // owned by this object — nothing may outlive it on the (shared, global)
  // executor.
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return tasks_inflight_ == 0 && active_chains_ == 0 &&
           pending_batches_.empty() && queue_.empty();
  });
}

int JobScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size());
}

void JobScheduler::resolve(Job&& job, RolloutResult result) {
  result.job_id = job.id;
  result.total_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - job.submitted)
          .count();
  result.trace_id = job.request.trace_id;
  if (result.status == JobStatus::Ok && !result.cached) {
    result.cache_outcome = job.has_cache_key ? serve::CacheOutcome::Miss
                                             : serve::CacheOutcome::None;
  }
  // Phase assembly. queue_us is the time from submit to the worker pull
  // (for a joined follower, to its leader's finish), minus what the cache
  // consult already accounted for.
  result.phases.decode_us = job.request.decode_us;
  result.phases.cache_us = job.cache_us;
  if (job.dequeued != Clock::time_point{}) {
    const double pre_dispatch_us =
        std::chrono::duration<double, std::micro>(job.dequeued -
                                                  job.submitted)
            .count();
    result.phases.queue_us = std::max(0.0, pre_dispatch_us - job.cache_us);
  }
  result.phases.compute_us = result.exec_ms * 1e3;
  // Flight-leader funnel: every terminal path of a leading job releases
  // its flight exactly once — complete() after a bitwise-complete rollout
  // (which also inserts it into the store), abandon() for anything less
  // (partial prefixes still salvage followers they cover). This runs
  // before the promise resolves so a caller that observes completion can
  // immediately re-submit and hit.
  if (job.has_cache_key && config_.cache != nullptr) {
    if (result.status == JobStatus::Ok &&
        result.frames.size() ==
            static_cast<std::size_t>(job.request.steps)) {
      config_.cache->complete(job.cache_key, result.frames);
    } else {
      config_.cache->abandon(job.cache_key, result.frames,
                             static_cast<int>(result.status), result.error);
    }
  }
  int depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_flags_.erase(job.id);
    depth = static_cast<int>(queue_.size());
  }
  stats_.on_resolved(result, depth);
  if (slow_request_threshold_ms() >= 0.0 &&
      result.total_ms >= slow_request_threshold_ms()) {
    log_slow_request(job.request, result);
  }
  job.promise.set_value(std::move(result));
  if (job.on_resolved) job.on_resolved();
}

// ---------------------------------------------------------------------------
// Executor machinery. The scheduler owns no threads: drains, batch
// windows, queued deadlines, and rollout steps are all tasks or timers on
// the global work-stealing executor, and every terminal path funnels into
// resolve().
// ---------------------------------------------------------------------------

/// One in-flight rollout chain: preflighted on its first task, then
/// advanced one step per task so a long rollout never monopolizes a worker.
/// Tensors migrate between executor workers across tasks; that is safe
/// because arena buffers are plain heap vectors (ad/arena.cpp) and each
/// task re-enters NoGradGuard for its own thread-local tape flag.
struct JobScheduler::ChainState {
  std::vector<Job> jobs;
  std::vector<RolloutResult> results;
  std::vector<std::size_t> members;  ///< job index per rollout member
  /// Built by the first task's preflight; stepping starts once it exists.
  std::unique_ptr<core::BatchedRollout> rollout;
  Clock::time_point exec_started{};
  std::int64_t exec_started_ns = 0;
};

void JobScheduler::spawn_task_locked(std::function<void()> fn) {
  ++tasks_inflight_;
  exec::Executor::global().submit([this, fn = std::move(fn)]() mutable {
    fn();
    std::lock_guard<std::mutex> lock(mutex_);
    --tasks_inflight_;
    idle_cv_.notify_all();
  });
}

exec::Executor::TimerId JobScheduler::schedule_timer_locked(
    std::chrono::steady_clock::time_point due, std::function<void()> fn) {
  ++tasks_inflight_;
  return exec::Executor::global().schedule_at(
      due, [this, fn = std::move(fn)]() mutable {
        fn();
        std::lock_guard<std::mutex> lock(mutex_);
        --tasks_inflight_;
        idle_cv_.notify_all();
      });
}

bool JobScheduler::cancel_timer_locked(exec::Executor::TimerId id) {
  // cancel_timer never blocks on a firing callback (it just returns
  // false), so calling it under mutex_ cannot deadlock with the
  // callback's own lock acquisition.
  if (!exec::Executor::global().cancel_timer(id)) return false;
  --tasks_inflight_;
  idle_cv_.notify_all();
  return true;
}

void JobScheduler::schedule_drain_locked() {
  if (drain_scheduled_) return;
  drain_scheduled_ = true;
  spawn_task_locked([this] { drain_ready(); });
}

void JobScheduler::arm_deadline_timer_locked(std::uint64_t id,
                                             Clock::time_point due) {
  deadline_timers_[id] =
      schedule_timer_locked(due, [this, id] { expire_queued(id); });
}

void JobScheduler::cancel_deadline_timer_locked(std::uint64_t id) {
  auto it = deadline_timers_.find(id);
  if (it == deadline_timers_.end()) return;
  // A lost race (timer already firing) is fine: expire_queued only acts
  // on jobs it still finds in queue_ — whoever removes a job from the
  // queue owns its resolution.
  cancel_timer_locked(it->second);
  deadline_timers_.erase(it);
}

void JobScheduler::expire_queued(std::uint64_t id) {
  Job job;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    deadline_timers_.erase(id);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        job = std::move(*it);
        queue_.erase(it);
        found = true;
        break;
      }
    }
  }
  if (!found) return;  // dispatched or resolved first
  RolloutResult result;
  result.status = JobStatus::DeadlineExceeded;
  result.error = "deadline exceeded while queued";
  result.queue_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              job.submitted)
                        .count();
  resolve(std::move(job), std::move(result));
}

void JobScheduler::take_compatible_locked(std::vector<Job>& batch,
                                          const std::string& model) {
  for (auto it = queue_.begin();
       it != queue_.end() &&
       static_cast<int>(batch.size()) < config_.max_batch;) {
    if (it->request.model == model) {
      cancel_deadline_timer_locked(it->id);
      batch.push_back(std::move(*it));
      batch.back().dequeued = Clock::now();
      it = queue_.erase(it);
    } else {
      ++it;  // incompatible jobs keep their place for other chains
    }
  }
}

void JobScheduler::flush_pending_locked() {
  for (auto& entry : pending_batches_) {
    PendingBatch& pb = *entry.second;
    if (pb.timer != 0 && cancel_timer_locked(pb.timer)) {
      pb.timer = 0;
      const std::uint64_t id = entry.first;
      spawn_task_locked([this, id] { dispatch_pending(id); });
    }
    // Cancel lost: the timer is firing concurrently and will dispatch.
  }
}

void JobScheduler::drain_ready() {
  std::vector<std::vector<Job>> dispatches;
  std::vector<std::uint64_t> filled;  ///< parked batches now at max_batch
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drain_scheduled_ = false;
    if (!paused_) {
      // Parked batches absorb compatible arrivals first: a job prefers
      // joining a batch that is already waiting over opening a new chain
      // slot, and a batch that fills dispatches without waiting out its
      // window (early dispatch requires winning the timer cancel race).
      for (auto& entry : pending_batches_) {
        PendingBatch& pb = *entry.second;
        if (static_cast<int>(pb.jobs.size()) < config_.max_batch)
          take_compatible_locked(pb.jobs, pb.model);
        if (static_cast<int>(pb.jobs.size()) >= config_.max_batch &&
            pb.timer != 0 && cancel_timer_locked(pb.timer)) {
          pb.timer = 0;
          filled.push_back(entry.first);
        }
      }
      while (!queue_.empty() && active_chains_ < config_.workers) {
        Job leader = std::move(queue_.front());
        queue_.pop_front();
        cancel_deadline_timer_locked(leader.id);
        leader.dequeued = Clock::now();
        // By value: growing `batch` reallocates and would dangle a
        // reference into its front element.
        const std::string model = leader.request.model;
        std::vector<Job> batch;
        batch.push_back(std::move(leader));
        if (config_.max_batch > 1) take_compatible_locked(batch, model);
        ++active_chains_;  // parked batches hold their slot too
        Clock::time_point wake = Clock::time_point::max();
        if (static_cast<int>(batch.size()) < config_.max_batch &&
            config_.batch_window_us > 0.0 && !stopping_) {
          // Never hold a member past its own deadline just to fill the
          // batch: the wait is capped by the earliest member deadline.
          wake = Clock::now() + exec::from_ms(config_.batch_window_us / 1e3);
          for (const Job& job : batch) {
            if (job.has_deadline) wake = std::min(wake, job.deadline);
          }
        }
        if (wake != Clock::time_point::max() && Clock::now() < wake) {
          auto pb = std::make_shared<PendingBatch>();
          pb->model = batch.front().request.model;
          const std::uint64_t leader_id = batch.front().id;
          pb->jobs = std::move(batch);
          pending_batches_[leader_id] = pb;
          pb->timer = schedule_timer_locked(
              wake, [this, leader_id] { dispatch_pending(leader_id); });
        } else {
          dispatches.push_back(std::move(batch));
        }
      }
    }
  }
  for (auto& batch : dispatches) {
    stats_.on_dispatch(static_cast<int>(batch.size()));
    start_chain(std::move(batch));
  }
  for (std::uint64_t id : filled) dispatch_pending(id);
}

void JobScheduler::dispatch_pending(std::uint64_t leader_id) {
  std::vector<Job> jobs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_batches_.find(leader_id);
    if (it == pending_batches_.end()) return;  // lost a dispatch race
    jobs = std::move(it->second->jobs);
    pending_batches_.erase(it);
  }
  // Pre-dispatch sweep: a job cancelled (or expired) while its batch
  // window was pending resolves HERE and never executes — the batch
  // timer firing is not a license to run members whose fate is already
  // decided (tests/test_exec_serve.cpp: CancelWhileBatchWindowPending).
  std::vector<Job> live;
  live.reserve(jobs.size());
  for (Job& job : jobs) {
    RolloutResult result;
    result.queue_ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - job.submitted)
                          .count();
    if (job.cancelled->load(std::memory_order_relaxed)) {
      result.status = JobStatus::Cancelled;
      resolve(std::move(job), std::move(result));
    } else if (job.has_deadline && Clock::now() > job.deadline) {
      result.status = JobStatus::DeadlineExceeded;
      result.error = "deadline exceeded while queued";
      resolve(std::move(job), std::move(result));
    } else {
      live.push_back(std::move(job));
    }
  }
  if (live.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_chains_;  // the parked batch's slot opens with no chain
    if (!queue_.empty()) schedule_drain_locked();
    idle_cv_.notify_all();
    return;
  }
  stats_.on_dispatch(static_cast<int>(live.size()));
  start_chain(std::move(live));
}

void JobScheduler::start_chain(std::vector<Job> jobs) {
  auto chain = std::make_shared<ChainState>();
  chain->jobs = std::move(jobs);
  chain->results.resize(chain->jobs.size());
  std::lock_guard<std::mutex> lock(mutex_);
  spawn_task_locked([this, chain] { chain_step(chain); });
}

void JobScheduler::chain_step(const std::shared_ptr<ChainState>& chain) {
  // Per-task guard: the tape flag is thread-local and this chain's tasks
  // land on whichever worker steals them.
  ad::NoGradGuard no_grad;
  if (chain->rollout == nullptr) {
    const Clock::time_point started = Clock::now();
    for (std::size_t i = 0; i < chain->jobs.size(); ++i) {
      chain->results[i].queue_ms = std::chrono::duration<double, std::milli>(
                                       started - chain->jobs[i].submitted)
                                       .count();
      if (chain->jobs[i].dequeued != Clock::time_point{}) {
        chain->results[i].phases.batch_wait_us =
            std::chrono::duration<double, std::micro>(
                started - chain->jobs[i].dequeued)
                .count();
      }
    }
    const ModelRegistry::Handle sim =
        registry_->get(chain->jobs[0].request.model);
    // Pre-flight: resolve members that never get to run, validate the
    // rest. A malformed member fails alone — it must not take its batch
    // siblings down with it.
    std::vector<core::Window> windows;
    std::vector<core::SceneContext> contexts;
    std::vector<int> steps;
    for (std::size_t i = 0; i < chain->jobs.size(); ++i) {
      RolloutResult& result = chain->results[i];
      const Job& job = chain->jobs[i];
      if (job.cancelled->load(std::memory_order_relaxed)) {
        result.status = JobStatus::Cancelled;
        continue;
      }
      if (job.has_deadline && Clock::now() > job.deadline) {
        result.status = JobStatus::DeadlineExceeded;
        result.error = "deadline exceeded while queued";
        continue;
      }
      if (sim == nullptr) {
        result.status = JobStatus::ModelNotFound;
        result.error = "no model registered as '" + job.request.model + "'";
        continue;
      }
      try {
        MemberInputs inputs = build_member_inputs(job.request, sim->features());
        windows.push_back(std::move(inputs.window));
        contexts.push_back(std::move(inputs.context));
        steps.push_back(job.request.steps);
        chain->members.push_back(i);
        result.status = JobStatus::Ok;  // until a gate or a step says not
      } catch (const std::exception& e) {
        result.status = JobStatus::ExecutionError;
        result.error = e.what();
      }
    }
    if (chain->members.empty()) {
      finish_chain(chain);
      return;
    }
    chain->exec_started = Clock::now();
    chain->exec_started_ns = obs::trace_now_ns();
    try {
      chain->rollout =
          std::make_unique<core::BatchedRollout>(sim, windows, steps, contexts);
    } catch (const std::exception& e) {  // e.g. frame buffers too large
      for (std::size_t i : chain->members) {
        chain->results[i].status = JobStatus::ExecutionError;
        chain->results[i].error = e.what();
      }
      finish_chain(chain);
      return;
    }
  }

  // One rollout step, then yield the worker: resubmit as a continuation.
  // The gate runs before every step: an expired or cancelled member is
  // compacted out with its partial frames while the rest keep stepping —
  // so each member's deadline is honored even though the members share
  // forward passes.
  const auto gate = [&chain](int m) {
    const Job& job = chain->jobs[chain->members[m]];
    RolloutResult& result = chain->results[chain->members[m]];
    if (job.cancelled->load(std::memory_order_relaxed)) {
      result.status = JobStatus::Cancelled;
      return false;
    }
    if (job.has_deadline && Clock::now() > job.deadline) {
      result.status = JobStatus::DeadlineExceeded;
      return false;
    }
    return true;
  };
  bool done = false;
  try {
    done = !chain->rollout->step_once(gate);
  } catch (const std::exception& e) {
    // A failed step (bad shapes, an edgeless graph, ...) fails the members
    // it was stepping; each keeps the frames computed so far, and members
    // that already finished or dropped out keep their outcome.
    for (int m : chain->rollout->active()) {
      RolloutResult& result = chain->results[chain->members[m]];
      result.status = JobStatus::ExecutionError;
      result.error = e.what();
    }
    done = true;
  }

  if (done) {
    finish_chain(chain);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spawn_task_locked([this, chain] { chain_step(chain); });
}

void JobScheduler::finish_chain(const std::shared_ptr<ChainState>& chain) {
  if (chain->rollout != nullptr) {
    const double exec_ms = std::chrono::duration<double, std::milli>(
                               Clock::now() - chain->exec_started)
                               .count();
    const std::int64_t end_ns = obs::trace_now_ns();
    auto frames = chain->rollout->take_frames();
    for (std::size_t m = 0; m < chain->members.size(); ++m) {
      const Job& job = chain->jobs[chain->members[m]];
      RolloutResult& result = chain->results[chain->members[m]];
      result.frames = std::move(frames[m]);
      if (result.status == JobStatus::DeadlineExceeded) {
        result.error = "deadline exceeded after " +
                       std::to_string(result.frames.size()) + " of " +
                       std::to_string(job.request.steps) + " steps";
      }
      // Forward passes are shared, so a member's execution time is the
      // chain's wall time; one span per member keeps every traced request
      // visible even when its compute was amortized across a batch.
      result.exec_ms = exec_ms;
      obs::record_manual_span("serve.scheduler.execute",
                              chain->exec_started_ns, end_ns,
                              job.request.trace_id,
                              static_cast<std::int64_t>(job.id));
    }
  }
  for (std::size_t i = 0; i < chain->jobs.size(); ++i)
    resolve(std::move(chain->jobs[i]), std::move(chain->results[i]));
  std::lock_guard<std::mutex> lock(mutex_);
  --active_chains_;
  if (!queue_.empty()) schedule_drain_locked();
  idle_cv_.notify_all();
}

}  // namespace gns::serve
