#pragma once

/// \file job.hpp
/// Request/result types of the rollout serving subsystem.
///
/// A RolloutRequest is a plain-data description of one inference job: the
/// seed position window, the scene conditioning, a step count, and an
/// optional wall-clock deadline. Keeping the request free of ad::Tensor
/// handles means client threads never share tape state with workers — each
/// worker materializes its own tensors from the flat frames, so concurrent
/// jobs against one registered model share only immutable weights.

#include <cstdint>
#include <string>
#include <vector>

namespace gns::serve {

/// Terminal state of a job. Every submitted job resolves to exactly one of
/// these; rejection paths (QueueFull, ModelNotFound, ...) are typed results,
/// never exceptions or blocked callers.
enum class JobStatus {
  Ok,                ///< rollout completed all requested steps
  QueueFull,         ///< rejected at submit: bounded queue at capacity
  DeadlineExceeded,  ///< deadline hit while queued or mid-rollout
  Cancelled,         ///< cancel() won the race before/while executing
  ModelNotFound,     ///< registry has no model under the requested name
  ExecutionError,    ///< rollout threw (bad shapes, NaN guard, ...)
  ShutDown,          ///< scheduler shut down without draining this job
  BackendLost,  ///< router: backend died after chunk one (ErrorReply only)
};

[[nodiscard]] inline const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::Ok: return "ok";
    case JobStatus::QueueFull: return "queue_full";
    case JobStatus::DeadlineExceeded: return "deadline_exceeded";
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::ModelNotFound: return "model_not_found";
    case JobStatus::ExecutionError: return "execution_error";
    case JobStatus::ShutDown: return "shut_down";
    case JobStatus::BackendLost: return "backend_lost";
  }
  return "unknown";
}

/// Where a job's frames came from, at cache granularity. Finer than
/// RolloutResult::cached: distinguishes a store hit from single-flight
/// coalescing behind another request's computation.
enum class CacheOutcome : std::uint8_t {
  None = 0,    ///< no cache configured, or non-Ok terminal state
  Miss = 1,    ///< computed live; result inserted into the cache
  Hit = 2,     ///< served from the content-addressed store
  Joined = 3,  ///< coalesced behind an identical in-flight computation
};

[[nodiscard]] inline const char* to_string(CacheOutcome o) {
  switch (o) {
    case CacheOutcome::None: return "none";
    case CacheOutcome::Miss: return "miss";
    case CacheOutcome::Hit: return "hit";
    case CacheOutcome::Joined: return "joined";
  }
  return "unknown";
}

/// Per-request phase breakdown, microseconds of wall time per stage of the
/// serving pipeline. Phases are sequential and non-overlapping for a given
/// request, so their sum approximates the server-side portion of the RTT
/// (client-observed RTT adds network transfer on top). Filled in
/// cooperatively: the net front-end stamps decode/serialize/write, the
/// scheduler stamps cache/queue/batch_wait/compute. Zero means "phase did
/// not happen" (e.g. cache_us on a cache-less scheduler, compute_us on a
/// cache hit).
struct PhaseTimeline {
  double decode_us = 0.0;      ///< wire frame -> RolloutRequest parse
  double cache_us = 0.0;       ///< cache key hash + store lookup
  double queue_us = 0.0;       ///< waiting in the scheduler queue
  double batch_wait_us = 0.0;  ///< coalescing window after dequeue
  double compute_us = 0.0;     ///< rollout execution on a worker
  double serialize_us = 0.0;   ///< frames -> wire chunks + status encode
  double write_us = 0.0;       ///< socket write/flush of the reply bytes

  /// Sum of all phases; the server-side latency this request actually
  /// accrued across the pipeline.
  [[nodiscard]] double total_us() const {
    return decode_us + cache_us + queue_us + batch_wait_us + compute_us +
           serialize_us + write_us;
  }
};

/// One rollout inference job.
struct RolloutRequest {
  std::string model;  ///< registry name of the simulator to run

  /// Seed window: window_size() frames, oldest first, each flat [N*dim]
  /// in the io::Trajectory layout.
  std::vector<std::vector<double>> window;

  int steps = 1;  ///< number of frames to predict

  /// Material parameter (tan φ); used iff the model's feature config has
  /// material_feature.
  double material = 0.0;

  /// Flat [N * static_node_attrs] per-particle attributes; used iff the
  /// model's feature config has static_node_attrs > 0.
  std::vector<double> node_attrs;

  /// Wall-clock budget in milliseconds measured from submit; 0 disables.
  /// Checked while queued and between rollout steps, so an expired job
  /// never occupies a worker for longer than one step. A negative value
  /// means the deadline already expired upstream (e.g. the net front-end
  /// charged buffering time against it): submit() rejects it immediately
  /// with DeadlineExceeded instead of queueing it.
  double deadline_ms = 0.0;

  /// Caller-chosen correlation id, stamped on every span this request
  /// touches (scheduler, cache, batch execution, chunk writes) and echoed
  /// in the result, so one Perfetto trace shows the cross-layer life of a
  /// request. 0 means "unset" — spans then carry no trace_id arg. The net
  /// front-end fills this from the wire; in-process callers may set any
  /// nonzero value.
  std::uint64_t trace_id = 0;

  /// Trace option bits from the wire (bit 0 = sampled). Reserved for
  /// propagation; the server currently records spans whenever tracing is
  /// enabled regardless of flags.
  std::uint8_t trace_flags = 0;

  /// Microseconds the front-end spent decoding the wire frame into this
  /// request; copied into PhaseTimeline::decode_us so the breakdown covers
  /// the full server-side path. 0 for in-process submissions.
  double decode_us = 0.0;
};

/// Outcome of a job. `frames` holds every frame predicted before the
/// terminal state — a DeadlineExceeded/Cancelled job may carry a partial
/// rollout prefix (frames computed so far), which is still a valid
/// trajectory prefix because the rollout is strictly sequential.
struct RolloutResult {
  JobStatus status = JobStatus::ExecutionError;
  std::string error;  ///< diagnostic message for ExecutionError

  std::vector<std::vector<double>> frames;  ///< predicted frames, flat [N*dim]

  std::uint64_t job_id = 0;
  double queue_ms = 0.0;  ///< time spent waiting in the queue
  double exec_ms = 0.0;   ///< time spent executing on a worker
  double total_ms = 0.0;  ///< submit-to-resolve wall time

  /// True when no rollout ran on this job's behalf: the frames came from
  /// the rollout cache (hit) or from an identical in-flight computation
  /// (single-flight coalescing). Bitwise identical to a live rollout
  /// either way — this flag is observability, not a quality marker.
  bool cached = false;

  /// Finer-grained provenance than `cached` (see CacheOutcome).
  CacheOutcome cache_outcome = CacheOutcome::None;

  /// Echo of RolloutRequest::trace_id for correlation.
  std::uint64_t trace_id = 0;

  /// Per-phase breakdown of where this request's latency went. The
  /// scheduler fills decode/cache/queue/batch_wait/compute; serialize and
  /// write stay zero for in-process callers and are stamped by the net
  /// front-end on the wire StatusReply (write_us is only known after the
  /// reply is flushed, so the wire value reports serialize-time knowledge
  /// and the flush cost lands in the serve.phase.write_us histogram).
  PhaseTimeline phases;

  [[nodiscard]] bool ok() const { return status == JobStatus::Ok; }
};

}  // namespace gns::serve
