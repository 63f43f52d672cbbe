#pragma once

/// \file backend.hpp
/// One backend of a rollout fleet, as the router sees it.
///
/// A Backend owns three things:
///  - its capability record, learned from the HELLO handshake the first
///    time a connection comes up (served models, in-flight capacity). A
///    backend that cannot answer the HELLO — it closes, times out, or
///    replies with an error — fails the checkout like any other I/O
///    failure;
///  - a pool of idle BackendConns (blocking, exclusively checked out) so
///    concurrent proxied requests each get their own connection without a
///    per-request TCP + HELLO round trip;
///  - its health state: Healthy until an I/O failure or probe timeout
///    evicts it, then Evicted with an exponentially growing re-admission
///    backoff until a probe handshake succeeds again.
///
/// Thread safety: every public method is safe to call from any router
/// thread. A checked-out BackendConn is exclusively owned by its caller
/// and is NOT thread-safe itself.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace gns::router {

struct BackendAddress {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Parses "host:port" (host defaulting to 127.0.0.1 for a bare ":port" or
/// "port" spec). Returns false on a malformed spec.
[[nodiscard]] bool parse_backend_address(const std::string& spec,
                                         BackendAddress& out);

/// Knobs shared by every Backend of one router.
struct BackendTuning {
  double connect_timeout_ms = 2000.0;  ///< per TCP connect attempt
  double hello_timeout_ms = 2000.0;    ///< handshake reply deadline
  /// Per-frame read deadline while proxying a rollout. Generous: a cold
  /// backend may legitimately compute for a long time before chunk one.
  double io_timeout_ms = 120'000.0;
  /// Eviction backoff: first re-admission attempt after readmit_backoff_ms,
  /// doubling per consecutive failure up to readmit_backoff_max_ms.
  double readmit_backoff_ms = 250.0;
  double readmit_backoff_max_ms = 5000.0;
};

/// What the HELLO handshake learned.
struct BackendCapabilities {
  bool draining = false;  ///< peer said it is draining (HELLO or probe)
  std::vector<std::string> models;  ///< served models
  int capacity = 0;                 ///< max in-flight the router will place
  int workers = 0;                  ///< peer's scheduler workers (hint)
};

/// One blocking TCP connection to a backend, exclusively owned by the
/// checker-outer. Framing only — capability/health logic lives in Backend.
class BackendConn {
 public:
  enum class ReadStatus { Ok, Closed, Timeout, Error };

  explicit BackendConn(BackendAddress address);
  ~BackendConn();
  BackendConn(const BackendConn&) = delete;
  BackendConn& operator=(const BackendConn&) = delete;

  /// Fresh getaddrinfo + connect (never a cached resolution).
  [[nodiscard]] bool connect(double timeout_ms);
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void close();

  [[nodiscard]] bool send_frame(const std::vector<std::uint8_t>& frame);
  /// Blocks until one whole frame is buffered (deadline timeout_ms). The
  /// FrameView borrows this connection's buffer: valid until the next
  /// read_frame/close.
  [[nodiscard]] ReadStatus read_frame(net::FrameView& frame,
                                      std::string& error, double timeout_ms);

  /// Request ids are per-connection (the wire scopes them that way).
  [[nodiscard]] std::uint64_t next_request_id() { return next_request_id_++; }

 private:
  BackendAddress address_;
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::vector<std::uint8_t> buf_;  ///< partial-frame carryover
  std::size_t consumed_ = 0;       ///< frame handed out by the last read
};

enum class BackendHealth : std::uint8_t {
  Unknown,  ///< never handshaked yet; optimistically placeable
  Healthy,
  Evicted,
};

[[nodiscard]] inline const char* to_string(BackendHealth h) {
  switch (h) {
    case BackendHealth::Unknown: return "unknown";
    case BackendHealth::Healthy: return "healthy";
    case BackendHealth::Evicted: return "evicted";
  }
  return "?";
}

class Backend {
 public:
  Backend(BackendAddress address, BackendTuning tuning);

  [[nodiscard]] const BackendAddress& address() const { return address_; }
  [[nodiscard]] std::string label() const {
    return address_.host + ":" + std::to_string(address_.port);
  }

  /// Checks out an exclusive connection: an idle pooled one, or a fresh
  /// connect (+ HELLO handshake when capabilities are not yet known).
  /// nullptr with `error` set on failure — the caller decides whether that
  /// evicts. Never blocks longer than connect+hello timeouts.
  [[nodiscard]] std::unique_ptr<BackendConn> checkout(std::string& error);
  /// Returns a connection that is still in a clean frame boundary (a
  /// half-read stream must be closed instead, not checked in).
  void checkin(std::unique_ptr<BackendConn> conn);

  [[nodiscard]] BackendCapabilities capabilities() const;
  /// Least-in-flight placement asks this: does the backend serve `model`?
  /// True for any model while capabilities are unknown (the request
  /// itself is the probe that finds out).
  [[nodiscard]] bool serves(const std::string& model) const;
  /// Capacity for placement: advertised max_inflight, unlimited while
  /// unknown.
  [[nodiscard]] int placement_capacity() const;
  void set_draining(bool draining);

  [[nodiscard]] int inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  void add_inflight(int delta) {
    inflight_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] BackendHealth health() const;
  /// Probe handshake succeeded (or a proxied request completed): resets
  /// the eviction backoff.
  void mark_healthy();
  /// I/O failure or probe timeout: close the idle pool, extend the
  /// re-admission backoff.
  void evict();
  /// Evicted and past the backoff deadline — the probe loop should try a
  /// re-admission handshake now.
  [[nodiscard]] bool readmit_due() const;

 private:
  /// HELLO on a fresh connection; fills caps under mutex_.
  [[nodiscard]] bool handshake(BackendConn& conn, std::string& error);

  const BackendAddress address_;
  const BackendTuning tuning_;

  mutable std::mutex mutex_;
  BackendCapabilities caps_;
  bool caps_known_ = false;
  BackendHealth health_ = BackendHealth::Unknown;
  double backoff_ms_;
  std::chrono::steady_clock::time_point evicted_until_{};
  std::vector<std::unique_ptr<BackendConn>> idle_;

  std::atomic<int> inflight_{0};
};

}  // namespace gns::router
