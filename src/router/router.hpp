#pragma once

/// \file router.hpp
/// Front door of a rollout fleet: one process that speaks the same wire
/// protocol as `serve_rollouts --listen` and load-balances every
/// RolloutRequest across N backend servers.
///
/// Placement needs no config file: backends are given as host:port pairs
/// and everything else is learned over the wire. On first contact the
/// router sends a HELLO; the backend answers with its protocol version,
/// loaded model names, and in-flight capacity. Work goes to the
/// least-in-flight healthy backend that serves the requested model and has
/// a free slot.
///
/// Failure semantics, the contract the fault-injection suite pins:
///  - a backend that dies BEFORE its first chunk is evicted and the
///    request transparently retries on a sibling — rollouts are
///    idempotent, the client sees one clean stream, bitwise identical to a
///    direct rollout;
///  - a backend that dies AFTER streaming began cannot be retried without
///    duplicating frames: the client gets a typed ErrorReply{BackendLost};
///  - a Busy backend is skipped for a sibling; when every capable backend
///    is busy the Busy travels end-to-end so the client's backoff loop —
///    the fleet's real admission queue — takes over;
///  - trace_ids pass through both hops untouched, so one id greps across
///    client, router, and backend logs.
///
/// Health: a probe loop sends each backend a periodic StatsRequest with a
/// deadline. A timeout or I/O failure — from the probe or from any proxied
/// request — evicts the backend: its pool closes and placement skips it.
/// Eviction starts an exponentially growing re-admission backoff; once
/// due, the probe loop re-handshakes (HELLO again: the peer may have come
/// back as a different binary) and a success re-admits.
///
/// The router answers StatsRequest with its OWN metrics (router.* —
/// evictions, failovers, per-backend health) and HELLO with the aggregate
/// capability of its healthy fleet (union of models, summed capacity), so
/// routers stack behind routers.
///
/// Drain ordering for a whole fleet: drain the router FIRST (stop
/// admitting, finish proxied streams, close backend connections), then
/// drain the backends — the reverse order would drop the router's
/// in-flight work. Router::stop() implements the router half; no accepted
/// request is dropped.
///
/// Threading: one acceptor thread, one probe thread, one thread per client
/// connection (blocking proxy loop — a router fronts few clients each
/// issuing streams, not thousands of idle sockets). The acceptor joins
/// finished client threads before it admits the next client, so a
/// long-lived router holds only its live sessions. Backend connections
/// are pooled per backend and exclusively checked out per request.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "router/backend.hpp"

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

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();  ///< calls stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds and starts the acceptor + probe threads. Does NOT wait for any
  /// backend: dead ones stay Unknown/Evicted until the probe loop reaches
  /// them, and requests simply avoid them.
  [[nodiscard]] bool start();

  /// Graceful drain: stop accepting, answer new requests with
  /// ShuttingDown, let in-flight proxied streams finish (bounded by
  /// drain_timeout_ms), close backend connections. Idempotent.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] std::vector<BackendSnapshot> snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One client connection and the thread serving it; registered so
  /// stop() can shutdown() stragglers past the drain deadline. `done` is
  /// the thread's last write: once it is set, a join returns at once.
  struct Session {
    std::atomic<int> fd{-1};
    std::atomic<bool> done{false};
    std::thread thread;
  };

  enum class ProxyOutcome {
    Done,           ///< a terminal frame reached the client
    ClientLost,     ///< the client went away mid-stream; tear down
    RetryBusy,      ///< backend answered Busy; try a sibling
    RetryDraining,  ///< backend is draining; try a sibling
    RetryDead,      ///< backend died before its first chunk; evicted
    /// Placement was optimistic (capabilities unknown) but the checkout
    /// handshake revealed the backend does not serve the model.
    RetryIncapable,
    FatalStreamLost  ///< backend died after streaming began
  };

  enum class PickOutcome {
    Picked,
    NoBackendForModel,  ///< healthy backends exist; none serves the model
    AllBusy,            ///< capable backends exist; all at capacity
    AllDown             ///< nothing healthy at all
  };

  void acceptor_loop();
  void probe_loop();
  void probe_backend(Backend& backend);
  void serve_client(std::shared_ptr<Session> session);
  /// Dispatches one decoded client frame. False when the session must end.
  bool dispatch_frame(Session& session, const net::FrameView& frame);
  bool proxy_rollout(Session& session, const net::FrameView& frame);
  ProxyOutcome proxy_once(Session& session, std::uint64_t client_request_id,
                          const serve::RolloutRequest& request,
                          Backend& backend);
  void answer_stats(Session& session, const net::FrameView& frame);
  void answer_hello(Session& session, const net::FrameView& frame);

  /// Picks the least-in-flight capable backend and reserves one in-flight
  /// slot on it; the caller releases the slot with add_inflight(-1).
  Backend* pick_backend(const std::string& model,
                        const std::vector<Backend*>& exclude,
                        PickOutcome& outcome);
  void evict_backend(Backend& backend, const std::string& why);
  void update_health_gauge();

  bool send_to_client(Session& session,
                      const std::vector<std::uint8_t>& frame);
  void send_error(Session& session, std::uint64_t request_id,
                  net::NetError code, const std::string& message);

  RouterConfig config_;
  std::vector<std::unique_ptr<Backend>> backends_;

  int listen_fd_ = -1;
  int port_ = 0;
  Clock::time_point started_{};
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> active_clients_{0};
  std::atomic<int> inflight_{0};
  std::once_flag stop_once_;
  /// Held across pick_backend's scan and reservation, so sessions placing
  /// at the same time see each other's slots.
  std::mutex placement_mutex_;

  std::thread acceptor_;
  std::thread prober_;
  std::mutex sessions_mutex_;
  std::list<std::shared_ptr<Session>> sessions_;

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
  obs::Gauge& inflight_gauge_;
  obs::Gauge& active_clients_gauge_;
};

}  // namespace gns::router
