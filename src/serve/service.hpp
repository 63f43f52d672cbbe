#pragma once

/// \file service.hpp
/// RolloutService: the calls a wire front-end (net::Server) makes on what
/// it serves — the JobScheduler, which computes rollouts in this process,
/// or the fleet router, which proxies them. So one server, with one
/// listener, decoder, drain and set of timeouts, fronts both.

#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "serve/job.hpp"

namespace gns::serve {

/// submit()'s return: the job id (usable with cancel()) and the future
/// that resolves to the job's terminal RolloutResult.
struct JobTicket {
  std::uint64_t id = 0;
  std::future<RolloutResult> result;
};

/// What a HELLO reply advertises for a service.
struct ServiceCapabilities {
  int workers = 0;                  ///< concurrent rollout chains (hint)
  std::vector<std::string> models;  ///< model names the service runs
  /// In-flight requests it takes; unset: as many as the front-end admits.
  std::optional<int> max_inflight;
};

class RolloutService {
 public:
  virtual ~RolloutService() = default;

  /// Starts a job; never blocks. `on_resolved`, when set, is called once,
  /// right after the future's value is set, on whichever thread resolved
  /// the job, inside submit() itself for an immediate answer. It is a
  /// notice only: it must not block, nor take a lock the caller of
  /// submit() or cancel() holds.
  [[nodiscard]] virtual JobTicket submit(
      RolloutRequest request, std::function<void()> on_resolved = {}) = 0;
  /// Asks the job to stop. False when the job is unknown or resolved.
  virtual bool cancel(std::uint64_t job_id) = 0;
  /// Jobs accepted but not yet running, for the stats reply.
  [[nodiscard]] virtual int queue_depth() const = 0;
  [[nodiscard]] virtual ServiceCapabilities capabilities() const = 0;
  /// The front-end timed one reply's encoding / its terminal frame's flush.
  virtual void on_serialize(double /*serialize_us*/) {}
  virtual void on_write(double /*write_us*/) {}
};

}  // namespace gns::serve
