#pragma once

/// \file server.hpp
/// TCP front-end of the rollout serving subsystem. It serves a
/// serve::RolloutService: the JobScheduler, or a router fronting a fleet.
///
/// Threading model: the server owns no threads. The listening socket and
/// every accepted connection are oneshot fd watches on the global
/// executor's event thread, which turns their readiness into tasks on the
/// same work-stealing pool that runs the scheduler's rollout chains and
/// the per-step compute, so net I/O shares cores with compute. A
/// connection's service pass appends reads to a per-connection buffer,
/// decodes complete frames and submits them to the service, encodes
/// resolved futures into a per-connection write queue, and drains writes
/// on POLLOUT. Nothing polls: a pass runs on one of three events — the
/// connection's watch, a job's completion notice from the service, or the
/// connection's timeout timer, which is armed only while a read or idle
/// deadline can expire. Each connection's passes hold its mutex, so they
/// run one at a time.
///
/// Backpressure is explicit and bounded everywhere: a request beyond the
/// per-connection or global in-flight cap — or one the service resolves
/// QueueFull — is answered with ErrorReply{Busy} immediately; the server
/// never queues unboundedly on behalf of a client (read buffers are capped
/// by the protocol's frame cap, write queues by the in-flight cap). A job
/// that resolves BackendLost (a router's backend died after its first
/// chunk) is answered with ErrorReply{BackendLost}.
///
/// Deadlines propagate: a request's deadline_ms is re-based to the moment
/// the frame finished decoding, so time spent in the server's buffers
/// counts against the client's budget and an already-expired job is
/// rejected by the scheduler at submit time (DeadlineExceeded) instead of
/// occupying a batch slot.
///
/// Observability: every request's trace_id is threaded from decode through
/// the service to the final flush, so one Perfetto trace shows the
/// cross-layer life of a request; per-phase latency lands in the
/// scheduler's serve.phase.* histograms. kStatsRequest frames are answered
/// inline by the connection's service task with a metrics + health
/// snapshot (Prometheus or JSON), so a live server can be scraped without
/// queueing behind rollouts.
///
/// stop() drains gracefully: the listener closes at once (a connect()
/// during the drain is refused), new requests get
/// ErrorReply{ShuttingDown}, in-flight jobs run to completion and their
/// replies are flushed, then connections close and the obs env files
/// (GNS_TRACE_FILE / GNS_METRICS_FILE) are flushed. No accepted job is
/// ever dropped by a drain.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace gns::net {

struct ServerConfig {
  std::string host = "127.0.0.1";  ///< bind address
  int port = 0;                    ///< 0 picks an ephemeral port (see port())
  int max_connections = 64;        ///< accepted beyond this are closed
  /// In-flight (submitted, unresolved) request caps; exceeding either is a
  /// Busy reply, never a queue.
  int max_inflight_per_connection = 4;
  int max_inflight_global = 64;
  /// A connection with no traffic and no in-flight jobs for this long is
  /// closed. <= 0 disables.
  double idle_timeout_ms = 60'000.0;
  /// A partial frame that stops growing for this long closes the
  /// connection (slowloris guard). <= 0 disables.
  double read_timeout_ms = 10'000.0;
  /// Predicted frames per RolloutChunk when streaming a finished rollout.
  int chunk_frames = 8;
  /// stop() waits at most this long for in-flight jobs + flushes.
  double drain_timeout_ms = 60'000.0;
  std::string metrics_prefix = "net";  ///< net.* instrument prefix
};

/// TCP server bridging the wire protocol onto a RolloutService. The
/// service must outlive the server.
class Server {
 public:
  Server(serve::RolloutService& service, ServerConfig config = {});
  /// Calls stop() if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and watches the listener on the executor's event
  /// thread. Returns false (with the OS error logged) when the socket
  /// setup fails.
  [[nodiscard]] bool start();

  /// Graceful drain: stop accepting, fail new requests with ShuttingDown,
  /// wait for in-flight jobs and flush their replies (bounded by
  /// drain_timeout_ms), close everything, then flush the obs env files.
  /// Idempotent and safe to call from a signal-watcher thread.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound port (resolves port=0 to the ephemeral choice); 0 before
  /// start().
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] int active_connections() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One submitted request whose future has not resolved yet.
  struct Pending {
    std::uint64_t request_id = 0;       ///< wire id, echoed in replies
    std::uint64_t job_id = 0;           ///< service job id, for cancel()
    std::future<serve::RolloutResult> future;
    Clock::time_point decoded;  ///< when the request finished decoding
  };

  /// One encoded frame awaiting its turn on the socket. The terminal frame
  /// of a request (StatusReply/ErrorReply) is tagged so flush_writes can
  /// attribute the write/flush phase to that request once the bytes leave.
  struct WriteItem {
    std::vector<std::uint8_t> bytes;
    bool terminal = false;
    std::uint64_t trace_id = 0;
    std::int64_t enqueued_ns = 0;  ///< obs::trace_now_ns() at enqueue
  };

  /// One accepted connection. Every service pass holds `m`, so passes
  /// run one at a time; stop() takes it too.
  struct Connection {
    std::mutex m;
    int fd = -1;
    std::uint64_t key = 0;  ///< in econns_
    int watch_id = -1;
    bool closed = false;
    /// The read/idle timeout timer; 0 when none is armed or firing.
    exec::Executor::TimerId timer = 0;
    Clock::time_point timer_due{};
    /// Passed to the service with every request: queues a service pass
    /// once the job resolves. Built at accept.
    std::function<void()> on_resolved;
    std::vector<std::uint8_t> rbuf;
    std::size_t rbuf_consumed = 0;  ///< decoded prefix, compacted lazily
    std::deque<WriteItem> wqueue;
    std::size_t woff = 0;  ///< bytes of wqueue.front() already written
    std::vector<Pending> inflight;
    Clock::time_point last_activity;
    Clock::time_point partial_since;  ///< first byte of an incomplete frame
    bool has_partial = false;
    bool close_after_flush = false;  ///< fatal decode error: drop politely
  };

  /// Where a completion notice finds its server. The service can resolve
  /// an abandoned job after stop() has returned, so a notice holds this
  /// cell, never the server itself; stop() clears `server` before it waits
  /// for its tasks.
  struct NoticeCell {
    std::mutex m;
    Server* server = nullptr;  ///< guarded by m
  };

  /// Listener watch callback: accepts everything ready, watches each
  /// connection and arms its timeout timer, then re-arms the listener.
  void exec_accept();
  /// One service pass over a connection (read/decode/submit, move resolved
  /// futures into the write queue, flush writes, timeouts, drain exit),
  /// run as an executor task.
  void exec_service(const std::shared_ptr<Connection>& conn, short revents);
  /// The earliest read or idle deadline that can expire in the
  /// connection's current state, if any.
  std::optional<Clock::time_point> timeout_due(const Connection& conn) const;
  /// Keeps the connection's one timer due no later than `due`, and none
  /// when there is no deadline. Under conn->m.
  void arm_timeout(const std::shared_ptr<Connection>& conn,
                   std::optional<Clock::time_point> due);
  /// Drains socket -> rbuf; false when the peer closed or errored.
  bool read_some(Connection& conn);
  /// Decodes and dispatches every complete frame in rbuf.
  void process_rbuf(Connection& conn);
  /// `buffered_ms` is how long the frame straddled reads in rbuf — it is
  /// charged against the request's deadline before submit.
  void handle_request(Connection& conn, const FrameView& frame,
                      double buffered_ms);
  /// Answers a kStatsRequest with a metrics + health snapshot. Runs in the
  /// connection's service task; touches only atomics, the service's
  /// queue-depth accessor, and the metrics registry.
  void handle_stats(Connection& conn, const FrameView& frame);
  /// Answers a kHello with the service's capability advertisement
  /// (protocol version, model names, in-flight capacity). Runs in the
  /// connection's service task, like handle_stats.
  void handle_hello(Connection& conn, const FrameView& frame);
  /// Moves resolved futures into the write queue.
  void take_completions(Connection& conn);
  /// Streams one resolved result as RolloutChunks + a StatusReply, or
  /// answers QueueFull / BackendLost with an ErrorReply.
  void enqueue_result(Connection& conn, const Pending& pending,
                      const serve::RolloutResult& result);
  void enqueue_error(Connection& conn, std::uint64_t request_id,
                     NetError code, const std::string& message);
  /// Writes wqueue to the socket; false when the peer errored.
  bool flush_writes(Connection& conn);
  /// Unwatches, cancels the timer, cancels unresolved jobs and closes the
  /// socket. Under conn.m.
  void close_connection(Connection& conn);

  serve::RolloutService& service_;
  ServerConfig config_;

  int port_ = 0;
  Clock::time_point started_{};  ///< start() time, for StatsReply uptime
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> global_inflight_{0};
  std::atomic<int> active_connections_{0};
  std::once_flag stop_once_;

  // net.* instruments (cached handles; registry owns them).
  obs::Counter& accepted_;
  obs::Counter& frames_rx_;
  obs::Counter& frames_tx_;
  obs::Counter& bytes_rx_;
  obs::Counter& bytes_tx_;
  obs::Counter& rejected_backpressure_;
  obs::Counter& decode_errors_;
  obs::Counter& timeouts_;
  obs::Counter& stats_requests_;
  obs::Gauge& active_connections_gauge_;
  obs::Gauge& inflight_gauge_;
  obs::Gauge& queue_depth_gauge_;
  obs::HistogramMetric& request_ms_;
  /// Per-NetError rejection counters (`<prefix>.reject.<code>`), indexed
  /// by the numeric NetError value; [0] is unused.
  std::array<obs::Counter*, 10> reject_counters_{};

  // ---- executor I/O state ----
  std::mutex listen_mutex_;  ///< guards listen_fd_ and listen_watch_
  int listen_fd_ = -1;
  int listen_watch_ = -1;
  /// Live connections by key. Lock order: NEVER acquire econns_mutex_
  /// while holding a connection's mutex (release conn->m first).
  std::mutex econns_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Connection>> econns_;
  std::uint64_t next_econn_ = 1;
  std::shared_ptr<NoticeCell> notices_ = std::make_shared<NoticeCell>();
  /// Armed watches, armed timers and submitted service passes; stop()
  /// waits for none, so no callback outlives the server.
  exec::TaskCount tasks_;
};

}  // namespace gns::net
