#pragma once

/// \file router.hpp
/// Front door of a rollout fleet: one process that speaks the same wire
/// protocol as `serve_rollouts --listen` and load-balances every
/// RolloutRequest across N backend servers. DESIGN.md §11 has the
/// placement, failover, health and drain contract.
///
/// Placement needs no config file: a HELLO handshake learns each backend's
/// models and in-flight capacity, and work goes to the least-in-flight
/// healthy backend that serves the model and has a free slot. The router
/// relays a rollout whole: it collects a backend's chunks and resolves on
/// its StatusReply. A backend that dies before its first chunk is retried
/// on a sibling; one that dies after it is a typed BackendLost. A reply
/// that cannot be the request's answer (a chunk out of order, frames not
/// as long as the window's, more frames than steps) counts as a death at
/// that frame. A probe sweep sends each backend a HELLO with a deadline;
/// a miss, or an I/O failure on any request, evicts it until a later
/// probe re-admits it.
///
/// The router owns no threads. Its client side is a net::Server serving it
/// as a serve::RolloutService (accept, decode, timeouts, drain, stats and
/// HELLO). Each backend connection is a nonblocking socket with one
/// executor watch and one timer, and the sweep is one executor timer. Only
/// getaddrinfo on a backend given by host name can block a worker.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "router/backend.hpp"
#include "serve/service.hpp"

namespace gns::router {

struct RouterConfig {
  std::string host = "127.0.0.1";  ///< bind address
  int port = 0;                    ///< 0 picks an ephemeral port
  std::vector<BackendAddress> backends;
  int max_connections = 64;  ///< accepted client conns beyond this close
  /// Probe cadence and reply deadline; a probe miss evicts the backend.
  double probe_interval_ms = 1000.0;
  double probe_timeout_ms = 1000.0;
  /// Placement attempts per request across distinct backends; <= 0 means
  /// one attempt per configured backend.
  int max_attempts = 0;
  /// A client connection with no traffic for this long closes. <= 0
  /// disables.
  double client_idle_timeout_ms = 60'000.0;
  /// stop() waits at most this long for in-flight proxied requests.
  double drain_timeout_ms = 30'000.0;
  BackendTuning tuning;  ///< timeouts, eviction backoff
  std::string metrics_prefix = "router";
};

/// Point-in-time view of one backend, for operators and tests.
struct BackendSnapshot {
  BackendAddress address;
  BackendHealth health = BackendHealth::Unknown;
  BackendCapabilities capabilities;
  int inflight = 0;
};

class Router final : private serve::RolloutService {
 public:
  explicit Router(RouterConfig config);
  ~Router() override;  ///< calls stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the client listener and arms the probe sweep. Does NOT wait for
  /// any backend: dead ones stay Unknown/Evicted until a sweep reaches
  /// them, and requests simply avoid them.
  [[nodiscard]] bool start();

  /// Graceful drain — drain the router before its backends: the server
  /// stops accepting, answers new requests with ShuttingDown and lets
  /// in-flight requests finish (bounded by drain_timeout_ms); then the
  /// sweep stops and the backend connections close. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return server_.running(); }
  [[nodiscard]] int port() const { return server_.port(); }
  [[nodiscard]] std::vector<BackendSnapshot> snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One client request being placed and relayed.
  struct Proxy;

  enum class PickOutcome {
    Picked,
    NoBackendForModel,  ///< healthy backends exist; none serves the model
    AllBusy,            ///< capable backends exist; all at capacity
    AllDown             ///< nothing healthy at all
  };

  // serve::RolloutService: what the client-side server calls.
  [[nodiscard]] serve::JobTicket submit(
      serve::RolloutRequest request,
      std::function<void()> on_resolved) override;
  /// Closes the request's backend connection, so the backend cancels what
  /// it has not finished, and resolves it Cancelled.
  bool cancel(std::uint64_t job_id) override;
  [[nodiscard]] int queue_depth() const override { return 0; }
  [[nodiscard]] serve::ServiceCapabilities capabilities() const override;

  /// Runs one step of `proxy` under mutex_. Each *_locked step returns
  /// true when it ended the proxy, which advance() then publishes.
  void advance(const std::shared_ptr<Proxy>& proxy,
               const std::function<bool()>& step);
  /// Fulfils an ended proxy's future and sends its notice, unlocked.
  static void publish(Proxy& proxy);
  /// Places the proxy on the next backend, or ends it when none is left.
  bool place_locked(const std::shared_ptr<Proxy>& proxy);
  bool send_locked(const std::shared_ptr<Proxy>& proxy,
                   const std::shared_ptr<BackendConn>& conn);
  /// One reply frame; `more` is set while the relay waits for the next.
  bool on_reply_locked(const std::shared_ptr<Proxy>& proxy,
                       const net::FrameView& frame, bool& more);
  /// The current backend failed: evict it, then fail over, or end the
  /// proxy BackendLost after its first chunk.
  bool on_lost_locked(const std::shared_ptr<Proxy>& proxy,
                      const std::string& why);
  /// Releases the current backend's slot and connection.
  static void end_attempt_locked(Proxy& proxy);
  /// Claims the proxy for `result`; false when cancel() claimed it first.
  bool finish_locked(Proxy& proxy, serve::RolloutResult result);

  /// Picks the least-in-flight capable backend and reserves one in-flight
  /// slot on it; the caller releases the slot with add_inflight(-1).
  Backend* pick_backend_locked(const std::string& model,
                               const std::vector<Backend*>& exclude,
                               PickOutcome& outcome);
  void evict_backend(Backend& backend, const std::string& why);
  void update_health_gauge();

  // Probe sweep: one executor timer, re-armed once its last probe ends.
  void arm_sweep_locked(Clock::time_point due);
  void sweep();
  /// Probes backends_[index], then the next one.
  void probe(std::size_t index);

  RouterConfig config_;
  exec::TaskCount tasks_;  ///< the router's executor callbacks; stop() waits
  std::vector<std::unique_ptr<Backend>> backends_;
  net::Server server_;

  std::once_flag stop_once_;

  /// Guards the proxies, placement and the sweep state. Lock order:
  /// mutex_, then a Backend's or a BackendConn's own mutex.
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<Proxy>> proxies_;
  std::uint64_t next_proxy_ = 1;
  bool stopping_ = false;  ///< no new sweeps
  exec::Executor::TimerId sweep_timer_ = 0;
  Clock::time_point sweep_started_{};

  // router.* instruments (cached handles; registry owns them).
  obs::Counter& requests_;
  obs::Counter& retries_;
  obs::Counter& failovers_;
  obs::Counter& evictions_;
  obs::Counter& readmissions_;
  obs::Counter& backend_lost_;
  obs::Counter& busy_rejected_;
  obs::Counter& probes_;
  obs::Gauge& backends_healthy_;
};

}  // namespace gns::router
