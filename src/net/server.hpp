#pragma once

/// \file server.hpp
/// TCP front-end of the rollout serving subsystem.
///
/// Threading model: the server owns no threads. The listening socket and
/// every accepted connection are watched through an exec::IoBridge; the
/// executor's one event thread turns their readiness into tasks on the
/// global work-stealing executor — the same pool that runs the
/// scheduler's rollout chains and the per-step compute, so net I/O shares
/// cores with compute. Each
/// connection is serviced by at most one task at a time (oneshot watches
/// plus a per-connection mutex); while requests are in flight or writes
/// are queued, a short executor pump timer re-services the connection
/// between socket events. A service pass appends reads to a
/// per-connection buffer, decodes complete frames and submits them to the
/// serve::JobScheduler, encodes resolved futures into a per-connection
/// write queue, and drains writes on POLLOUT.
///
/// Backpressure is explicit and bounded everywhere: a request beyond the
/// per-connection or global in-flight cap — or one the scheduler rejects
/// with QueueFull — is answered with ErrorReply{Busy} immediately; the
/// server never queues unboundedly on behalf of a client (read buffers are
/// capped by the protocol's frame cap, write queues by the in-flight cap).
///
/// Deadlines propagate: a request's deadline_ms is re-based to the moment
/// the frame finished decoding, so time spent in the server's buffers
/// counts against the client's budget and an already-expired job is
/// rejected by the scheduler at submit time (DeadlineExceeded) instead of
/// occupying a batch slot.
///
/// Observability: every request's trace_id is threaded from decode through
/// the scheduler to the final flush, so one Perfetto trace shows the
/// cross-layer life of a request; per-phase latency lands in the
/// scheduler's serve.phase.* histograms. kStatsRequest frames are answered
/// inline by the connection's service task with a metrics + health
/// snapshot (Prometheus or JSON), so a live server can be scraped without
/// queueing behind rollouts.
///
/// stop() drains gracefully: the listener closes, new requests get
/// ErrorReply{ShuttingDown}, in-flight jobs run to completion and their
/// replies are flushed, then connections close and the obs env files
/// (GNS_TRACE_FILE / GNS_METRICS_FILE) are flushed. No accepted job is
/// ever dropped by a drain.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "exec/io_bridge.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "serve/scheduler.hpp"

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

/// TCP server bridging the wire protocol onto a JobScheduler. The
/// scheduler (and its registry) must outlive the server.
class Server {
 public:
  Server(serve::JobScheduler& scheduler, ServerConfig config = {});
  /// Calls stop() if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and registers the listener with the executor's I/O
  /// bridge. Returns false (with the OS error logged) when the socket
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
    std::uint64_t job_id = 0;           ///< scheduler id, for cancel()
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

  struct Connection {
    // Explicitly move-only: std::deque's move ctor is not noexcept in
    // libstdc++, so without a deleted copy ctor vector reallocation would
    // try to copy the (move-only) futures and fail to compile.
    Connection() = default;
    Connection(Connection&&) = default;
    Connection& operator=(Connection&&) = default;
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd = -1;
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

  /// One live connection: the Connection state plus the bridge watch and
  /// pump timer that drive it. Defined in server.cpp.
  struct ExecConn;

  /// Listener watch callback: accepts everything ready, registers each
  /// connection with the bridge, then re-arms the listener.
  void exec_accept(short revents);
  /// One service pass over a connection (read/decode/submit, pump resolved
  /// futures, flush writes, timeouts), run as an executor task. At most
  /// one runs per connection at a time (oneshot watch + ec->m).
  void exec_service(const std::shared_ptr<ExecConn>& ec, short revents);
  /// Drains socket -> rbuf; false when the peer closed or errored.
  bool read_some(Connection& conn);
  /// Decodes and dispatches every complete frame in rbuf.
  void process_rbuf(Connection& conn);
  /// `buffered_ms` is how long the frame straddled reads in rbuf — it is
  /// charged against the request's deadline before submit.
  void handle_request(Connection& conn, const FrameView& frame,
                      double buffered_ms);
  /// Answers a kStatsRequest with a metrics + health snapshot. Runs in the
  /// connection's service task; touches only atomics, the scheduler's
  /// queue-depth accessor, and the metrics registry.
  void handle_stats(Connection& conn, const FrameView& frame);
  /// Answers a kHello with this backend's capability advertisement
  /// (protocol version, registry model names, in-flight capacity). Runs in
  /// the connection's service task, like handle_stats.
  void handle_hello(Connection& conn, const FrameView& frame);
  /// Moves resolved futures into the write queue; returns in-flight count.
  std::size_t pump_completions(Connection& conn);
  /// Streams one resolved result as RolloutChunks + a StatusReply.
  void enqueue_result(Connection& conn, const Pending& pending,
                      const serve::RolloutResult& result);
  void enqueue_error(Connection& conn, std::uint64_t request_id,
                     NetError code, const std::string& message);
  /// Writes wqueue to the socket; false when the peer errored.
  bool flush_writes(Connection& conn);
  void close_connection(Connection& conn);

  serve::JobScheduler& scheduler_;
  ServerConfig config_;

  int listen_fd_ = -1;
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
  std::unique_ptr<exec::IoBridge> bridge_;
  std::mutex listen_mutex_;  ///< guards listen_watch_
  int listen_watch_ = -1;
  /// Live connections by key. Lock order: NEVER acquire econns_mutex_
  /// while holding an ExecConn's mutex (release ec->m first).
  std::mutex econns_mutex_;
  std::map<std::uint64_t, std::shared_ptr<ExecConn>> econns_;
  std::uint64_t next_econn_ = 1;
  /// Armed or firing pump timers; stop() waits for 0 so no timer callback
  /// outlives the server (bridge_->stop covers watch callbacks only).
  std::atomic<int> exec_pending_{0};
};

}  // namespace gns::net
