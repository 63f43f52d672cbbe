#pragma once

/// \file client.hpp
/// Blocking client for the net serving front-end.
///
/// One Client wraps one TCP connection. rollout() sends a kRolloutRequest
/// and blocks collecting the streamed kRolloutChunk frames until the
/// terminal kStatusReply / kErrorReply arrives, reassembling the chunks
/// into the same frames vector an in-process serve::RolloutResult carries
/// (byte-for-byte: the wire moves raw IEEE doubles, so loopback results
/// are bitwise comparable against a direct Simulator rollout).
///
/// Backpressure is handled here, not by callers: an ErrorReply{Busy} —
/// the server's in-flight cap or the scheduler's bounded queue — is
/// retried with exponential backoff up to busy_max_retries times before
/// surfacing. Transient connect failures (ECONNREFUSED while the server
/// is still binding, ECONNRESET from a listen backlog overflow) get the
/// same backoff treatment, so clients racing a server start converge
/// instead of failing once and giving up. So does a connection that dies
/// before ANY reply frame arrives (send failure, EOF, reset): that is the
/// shape of a stale connection to a restarted backend, the request never
/// started streaming, and rollouts are idempotent — safe to resend on a
/// fresh connection (the address is re-resolved every attempt). Every
/// other error (transport mid-stream, protocol, typed job failure) is
/// returned on the first occurrence.
///
/// Used by tests/test_net_server.cpp and bench/bench_net_throughput.cpp;
/// also the reference implementation for external clients.

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "serve/job.hpp"

namespace gns::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  int port = 0;
  double connect_timeout_ms = 5000.0;  ///< per connect() attempt
  double recv_timeout_ms = 120'000.0;  ///< silence on the socket -> error
  /// Busy-retry policy: sleep busy_backoff_ms, double it each retry (cap
  /// busy_backoff_max_ms), give up after busy_max_retries retries. The
  /// same policy governs transient connect errors (ECONNREFUSED /
  /// ECONNRESET during connect), counted separately up to the same cap.
  int busy_max_retries = 8;
  double busy_backoff_ms = 5.0;
  double busy_backoff_max_ms = 500.0;
};

/// Outcome of one Client::rollout call.
struct ClientResult {
  /// False when the socket or the reply stream itself failed; all other
  /// fields except transport_error are meaningless then.
  bool transport_ok = false;
  std::string transport_error;
  /// True when the failure was establishing the connection (as opposed to
  /// mid-exchange). A true value with transport_ok == false after
  /// rollout() means connect retries were exhausted too.
  bool connect_failed = false;
  /// True when an established connection died (send failure, EOF, reset)
  /// before any reply frame for this request arrived. rollout() retries
  /// this shape on a fresh connection (counted in connect_retries); it
  /// only surfaces once retries are exhausted. Once a reply has started
  /// streaming the failure is final — the caller may hold partial frames.
  bool lost_before_reply = false;

  /// True when the terminal frame was an ErrorReply (net_error says why —
  /// a Busy here means retries were exhausted).
  bool is_net_error = false;
  NetError net_error = NetError::Internal;

  /// Terminal job outcome from the StatusReply (when !is_net_error).
  serve::JobStatus status = serve::JobStatus::ExecutionError;
  std::string error;  ///< server-side diagnostic message

  /// Reassembled predicted frames, flat [N*dim] each — including a partial
  /// prefix when the job hit its deadline or was cancelled.
  std::vector<std::vector<double>> frames;

  double queue_ms = 0.0;  ///< server-side timings, from the StatusReply
  double exec_ms = 0.0;
  double total_ms = 0.0;
  double rtt_ms = 0.0;  ///< client-observed send-to-terminal wall time
  int busy_retries = 0;  ///< Busy replies absorbed before this outcome
  int connect_retries = 0;  ///< transient connect failures absorbed

  /// The trace id this request traveled under — the one from the request,
  /// or the client-generated one when the request left it 0. Grep for it
  /// (hex) in the server's trace JSON and slow-request log lines.
  std::uint64_t trace_id = 0;
  bool cached = false;  ///< frames came from the server's rollout cache
  serve::CacheOutcome cache_outcome = serve::CacheOutcome::None;
  /// Server-side per-phase breakdown from the StatusReply. write_us is
  /// always 0 on the wire — see WireStatus.
  serve::PhaseTimeline phases;

  [[nodiscard]] bool ok() const {
    return transport_ok && !is_net_error &&
           status == serve::JobStatus::Ok;
  }
};

class Client {
 public:
  explicit Client(ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Establishes the TCP connection. Safe to call again after close() or
  /// a transport error (rollout() also reconnects lazily).
  [[nodiscard]] bool connect();
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends the request and blocks until its terminal reply, transparently
  /// retrying Busy rejections with backoff. Never throws. When
  /// request.trace_id is 0 the client generates one (returned in
  /// ClientResult::trace_id) so every wire request is traceable end to
  /// end without callers managing ids.
  [[nodiscard]] ClientResult rollout(const serve::RolloutRequest& request);

  /// Outcome of one Client::stats call.
  struct StatsResult {
    bool transport_ok = false;
    std::string transport_error;
    bool is_net_error = false;  ///< server answered with an ErrorReply
    NetError net_error = NetError::Internal;
    std::string error;
    WireStatsReply reply;  ///< the snapshot (when transport_ok && !is_net_error)
    double rtt_ms = 0.0;

    [[nodiscard]] bool ok() const { return transport_ok && !is_net_error; }
  };

  /// Scrapes the server's metrics + health snapshot (kStatsRequest).
  /// Blocking, no retry policy: introspection should report reality,
  /// including a Busy reality.
  [[nodiscard]] StatsResult stats(
      std::uint8_t format = WireStatsRequest::kPrometheus);

 private:
  /// rollout() after trace-id assignment: the Busy/connect retry loop.
  ClientResult run_rollout(const serve::RolloutRequest& request);
  /// One send + receive-until-terminal exchange (no Busy retry).
  ClientResult exchange(const serve::RolloutRequest& request,
                        std::uint64_t request_id);
  /// Blocking-reads one whole frame into buf_; empty view on failure.
  bool read_frame(FrameView& frame, std::string& error);

  ClientConfig config_;
  int fd_ = -1;
  /// errno captured at the failing connect() syscall (close() in the
  /// cleanup path may clobber the thread-local errno before callers see
  /// it); 0 for non-syscall failures like a malformed host address.
  int last_connect_errno_ = 0;
  std::uint64_t next_request_id_ = 1;
  /// Whether the last read_frame() failure was an I/O death (EOF / recv
  /// error) as opposed to a protocol violation; only the former is the
  /// retriable stale-connection shape.
  bool last_read_io_error_ = false;
  std::vector<std::uint8_t> buf_;  ///< partial-frame carryover between reads
  /// Bytes of buf_ the previous read_frame() handed out as a FrameView;
  /// erased on the next call (the view must stay valid until then).
  std::size_t consumed_ = 0;
};

}  // namespace gns::net
