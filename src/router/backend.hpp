#pragma once

/// \file backend.hpp
/// One backend of a rollout fleet, as the router sees it.
///
/// A Backend owns three things:
///  - its capability record, learned from HELLO replies (served models,
///    in-flight capacity, draining);
///  - a pool of idle BackendConns, each checked out by one request at a
///    time, so concurrent proxied requests each get their own connection
///    without a per-request TCP + HELLO round trip;
///  - its health state: Healthy until an I/O failure or probe timeout
///    evicts it, then Evicted with an exponentially growing re-admission
///    backoff until a probe handshake succeeds again.
///
/// A BackendConn blocks no thread: its socket is nonblocking, and it waits
/// on one executor fd watch and one executor timer. Every public method of
/// both classes is safe to call from any thread.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.hpp"
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

/// One nonblocking TCP connection to a backend. Framing only — capability
/// and health logic live in Backend.
class BackendConn : public std::enable_shared_from_this<BackendConn> {
 public:
  /// Each reply frame, valid for the call only. True ends the exchange
  /// and leaves the connection idle; false waits for the next frame.
  using OnFrame = std::function<bool(const net::FrameView&)>;
  /// A close, timeout or I/O error; the connection is already closed.
  using OnFailure = std::function<void(const std::string& why)>;

  BackendConn(BackendAddress address, double connect_timeout_ms,
              exec::TaskCount& tasks);
  ~BackendConn();

  /// Sends `frame`, then hands each reply frame to on_frame until it
  /// returns true; each wait for a frame is bounded by frame_timeout_ms.
  /// A fresh connection first resolves its address (getaddrinfo, never a
  /// cached resolution) and connects. One closed since its holder took it
  /// (a backend that sent bytes after its last reply) fails at once. The
  /// callbacks run on executor tasks, never inside this call.
  void exchange(std::vector<std::uint8_t> frame, double frame_timeout_ms,
                OnFrame on_frame, OnFailure on_failure);
  /// A pending exchange's callbacks never run after this (a running one
  /// may finish).
  void close();
  /// Connected (idle, or handing out its last reply) and not closing; an
  /// idle one also has nothing to read, so its peer has not closed it.
  [[nodiscard]] bool reusable();
  /// Request ids are per-connection (the wire scopes them that way).
  [[nodiscard]] std::uint64_t next_request_id() { return next_request_id_++; }

 private:
  using Clock = std::chrono::steady_clock;
  enum class State { Fresh, Connecting, Idle, Busy, Closed };

  /// A task of its own: getaddrinfo can block on a host name.
  void start_connect();
  void on_ready(short revents);
  void on_timer();
  /// Keeps the one timer due no later than `due`.
  void arm_timer_locked(Clock::time_point due);
  void rearm_locked(short events);
  /// Closes; returns the call, made after unlocking, that reports `why`.
  std::function<void()> fail_locked(const std::string& why);
  void close_locked();

  const BackendAddress address_;
  const Clock::duration connect_timeout_;
  exec::TaskCount& tasks_;

  std::mutex m_;  ///< guards the rest; never held while calling out
  State state_ = State::Fresh;
  int fd_ = -1;
  int watch_ = -1;
  exec::Executor::TimerId timer_ = 0;  ///< armed or firing; 0 when none
  Clock::time_point timer_due_{};
  Clock::time_point deadline_{};  ///< of the connect or the frame wait
  Clock::duration frame_timeout_{};
  bool peer_closed_ = false;    ///< EOF or error seen: never reuse
  std::uint64_t exchange_ = 0;  ///< bumped by each exchange()
  OnFrame on_frame_;
  OnFailure on_failure_;
  std::vector<std::uint8_t> wbuf_;
  std::size_t woff_ = 0;
  std::vector<std::uint8_t> rbuf_;
  std::atomic<std::uint64_t> next_request_id_{1};
};

enum class BackendHealth : std::uint8_t {
  Unknown,  ///< never handshaked yet; optimistically placeable
  Healthy,
  Evicted,
};

class Backend {
 public:
  /// Called once a HELLO exchange ends: with an empty error the connection
  /// is open and handshaked, else it is closed.
  using HelloDone = std::function<void(const std::shared_ptr<BackendConn>&,
                                       const std::string& error)>;

  Backend(BackendAddress address, BackendTuning tuning, exec::TaskCount& tasks);

  [[nodiscard]] const BackendAddress& address() const { return address_; }
  [[nodiscard]] std::string label() const {
    return address_.host + ":" + std::to_string(address_.port);
  }

  /// An idle pooled connection whose peer has not closed it, checked out
  /// to the caller, or nullptr.
  [[nodiscard]] std::shared_ptr<BackendConn> take_idle();
  /// Sends a HELLO on `conn`, whose reply is due within hello_timeout_ms
  /// and refreshes the capabilities. `done` runs on an executor task; the
  /// caller decides whether a failure evicts.
  void hello(const std::shared_ptr<BackendConn>& conn,
             double hello_timeout_ms, HelloDone done);
  /// hello() on a fresh connection, which it returns at once.
  std::shared_ptr<BackendConn> dial(double hello_timeout_ms, HelloDone done);
  /// Pools a connection at a clean frame boundary; one that is closed,
  /// past the pool's size or an eviction, is closed instead.
  void checkin(std::shared_ptr<BackendConn> conn);
  void close_idle();

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
  /// Evicted and past the backoff deadline — the probe sweep should try a
  /// re-admission handshake now.
  [[nodiscard]] bool readmit_due() const;

 private:
  /// Takes the capabilities from a HELLO reply; the error when it is not
  /// one.
  std::string learn(const net::FrameView& reply);

  const BackendAddress address_;
  const BackendTuning tuning_;
  exec::TaskCount& tasks_;

  mutable std::mutex mutex_;
  BackendCapabilities caps_;
  bool caps_known_ = false;
  BackendHealth health_ = BackendHealth::Unknown;
  double backoff_ms_;
  std::chrono::steady_clock::time_point evicted_until_{};
  std::vector<std::shared_ptr<BackendConn>> idle_;

  std::atomic<int> inflight_{0};
};

}  // namespace gns::router
