#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace gns::net {

namespace {

constexpr std::size_t kReadChunkBytes = 64 * 1024;
/// Compact the read buffer once this many decoded bytes sit at its front.
constexpr std::size_t kCompactThreshold = 256 * 1024;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

double ms_since(std::chrono::steady_clock::time_point then,
                std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - then).count();
}

}  // namespace

Server::Server(serve::RolloutService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      accepted_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".accepted")),
      frames_rx_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".frames_rx")),
      frames_tx_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".frames_tx")),
      bytes_rx_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".bytes_rx")),
      bytes_tx_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".bytes_tx")),
      rejected_backpressure_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".rejected_backpressure")),
      decode_errors_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".decode_errors")),
      timeouts_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".timeouts")),
      stats_requests_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".stats_requests")),
      active_connections_gauge_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".active_connections")),
      inflight_gauge_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".inflight")),
      queue_depth_gauge_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".scheduler_queue_depth")),
      request_ms_(obs::MetricsRegistry::global().histogram(
          config_.metrics_prefix + ".request_ms")) {
  for (std::uint8_t code = static_cast<std::uint8_t>(NetError::Busy);
       code <= static_cast<std::uint8_t>(NetError::BackendLost); ++code) {
    reject_counters_[code] = &obs::MetricsRegistry::global().counter(
        config_.metrics_prefix + ".reject." +
        to_string(static_cast<NetError>(code)));
  }
  GNS_CHECK_MSG(config_.max_inflight_per_connection >= 1 &&
                    config_.max_inflight_global >= 1,
                "Server in-flight caps must be >= 1");
  GNS_CHECK_MSG(config_.chunk_frames >= 1,
                "Server chunk_frames must be >= 1");
  notices_->server = this;
}

Server::~Server() { stop(); }

bool Server::start() {
  GNS_CHECK_MSG(!running_.load(), "Server::start called twice");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    GNS_ERROR("net: socket() failed: " << std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    GNS_ERROR("net: bad bind address '" << config_.host << "'");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0 || !set_nonblocking(listen_fd_)) {
    GNS_ERROR("net: bind/listen on " << config_.host << ":" << config_.port
                                     << " failed: " << std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  // No threads of our own: the executor's event thread turns listener/
  // connection readiness into tasks on the global executor.
  started_ = Clock::now();
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  {
    // The first accept task can run before watch() returns; it re-arms
    // through listen_watch_, so publish the id under the same lock.
    std::lock_guard<std::mutex> lock(listen_mutex_);
    tasks_.add();
    listen_watch_ = exec::Executor::global().watch(
        listen_fd_, POLLIN, [this](short) {
          exec_accept();
          tasks_.done();
        });
  }
  GNS_INFO("net: serving on " << config_.host << ":" << port_ << " ("
                              << exec::Executor::global().workers()
                              << " shared executor workers)");
  return true;
}

int Server::active_connections() const {
  return active_connections_.load(std::memory_order_relaxed);
}

bool Server::read_some(Connection& conn) {
  GNS_TRACE_SCOPE("net.conn.read");
  for (;;) {
    const std::size_t old_size = conn.rbuf.size();
    conn.rbuf.resize(old_size + kReadChunkBytes);
    const ssize_t n =
        ::recv(conn.fd, conn.rbuf.data() + old_size, kReadChunkBytes, 0);
    if (n > 0) {
      conn.rbuf.resize(old_size + static_cast<std::size_t>(n));
      bytes_rx_.add(static_cast<std::uint64_t>(n));
      conn.last_activity = Clock::now();
      if (static_cast<std::size_t>(n) < kReadChunkBytes) return true;
      continue;  // kernel buffer may hold more
    }
    conn.rbuf.resize(old_size);
    if (n == 0) return false;  // orderly peer close
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

void Server::process_rbuf(Connection& conn) {
  GNS_TRACE_SCOPE("net.conn.decode");
  for (;;) {
    const std::uint8_t* data = conn.rbuf.data() + conn.rbuf_consumed;
    const std::size_t len = conn.rbuf.size() - conn.rbuf_consumed;
    if (len == 0) {
      conn.has_partial = false;
      break;
    }
    FrameView frame;
    DecodeError error;
    const DecodeStatus status = try_decode_frame(data, len, frame, error);
    if (status == DecodeStatus::NeedMore) {
      if (!conn.has_partial) {
        conn.has_partial = true;
        conn.partial_since = Clock::now();
      }
      break;
    }
    const double buffered_ms =
        conn.has_partial ? ms_since(conn.partial_since, Clock::now()) : 0.0;
    conn.has_partial = false;
    if (status == DecodeStatus::Error) {
      decode_errors_.add();
      enqueue_error(conn, error.request_id, error.code, error.message);
      if (error.fatal) {
        // Framing is lost: discard the buffer and close once the error
        // reply has flushed.
        conn.rbuf_consumed = conn.rbuf.size();
        conn.close_after_flush = true;
        break;
      }
      conn.rbuf_consumed += error.skip_bytes;
      continue;
    }

    frames_rx_.add();
    if (frame.type == MessageType::RolloutRequest) {
      handle_request(conn, frame, buffered_ms);
    } else if (frame.type == MessageType::StatsRequest) {
      handle_stats(conn, frame);
    } else if (frame.type == MessageType::Hello) {
      handle_hello(conn, frame);
    } else {
      // Reply types flowing client->server are framing-correct but
      // semantically invalid; answer and keep the stream.
      decode_errors_.add();
      enqueue_error(conn, frame.request_id, NetError::Malformed,
                    "unexpected message type from client");
    }
    conn.rbuf_consumed += frame.frame_bytes;
  }

  // Compact lazily: memmove only when a big decoded prefix has built up.
  if (conn.rbuf_consumed == conn.rbuf.size()) {
    conn.rbuf.clear();
    conn.rbuf_consumed = 0;
  } else if (conn.rbuf_consumed > kCompactThreshold) {
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() +
                        static_cast<std::ptrdiff_t>(conn.rbuf_consumed));
    conn.rbuf_consumed = 0;
  }
}

void Server::handle_request(Connection& conn, const FrameView& frame,
                            double buffered_ms) {
  serve::RolloutRequest request;
  std::string parse_error;
  Timer decode_timer;
  if (!decode_rollout_request(frame, request, parse_error)) {
    decode_errors_.add();
    enqueue_error(conn, frame.request_id, NetError::Malformed, parse_error);
    return;
  }
  request.decode_us = decode_timer.millis() * 1e3;
  GNS_TRACE_SCOPE_T("net.conn.submit", request.trace_id);
  if (draining_.load(std::memory_order_acquire)) {
    enqueue_error(conn, frame.request_id, NetError::ShuttingDown,
                  "server is draining");
    return;
  }
  if (static_cast<int>(conn.inflight.size()) >=
          config_.max_inflight_per_connection ||
      global_inflight_.load(std::memory_order_relaxed) >=
          config_.max_inflight_global) {
    rejected_backpressure_.add();
    enqueue_error(conn, frame.request_id, NetError::Busy,
                  "in-flight request cap reached; retry with backoff");
    return;
  }

  // Deadline propagation: time the request spent straddling reads already
  // counts against its budget, so a deadline that died in the read buffer
  // reaches the scheduler as expired (<= 0) and is rejected at submit
  // instead of occupying a batch slot.
  if (request.deadline_ms > 0.0) {
    request.deadline_ms -= buffered_ms;
    if (request.deadline_ms == 0.0) request.deadline_ms = -1.0;  // 0 = none
  }

  serve::JobTicket ticket =
      service_.submit(std::move(request), conn.on_resolved);
  // The service resolves rejections (QueueFull / expired deadline /
  // ShutDown) immediately; take_completions translates them. QueueFull is
  // additionally counted as backpressure when it surfaces there.
  Pending pending;
  pending.request_id = frame.request_id;
  pending.job_id = ticket.id;
  pending.future = std::move(ticket.result);
  pending.decoded = Clock::now();
  conn.inflight.push_back(std::move(pending));
  const int inflight =
      global_inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  inflight_gauge_.set(inflight);
  queue_depth_gauge_.set(service_.queue_depth());
}

void Server::handle_stats(Connection& conn, const FrameView& frame) {
  GNS_TRACE_SCOPE("net.conn.stats");
  WireStatsRequest request;
  std::string parse_error;
  if (!decode_stats_request(frame, request, parse_error)) {
    decode_errors_.add();
    enqueue_error(conn, frame.request_id, NetError::Malformed, parse_error);
    return;
  }
  stats_requests_.add();
  // Deliberately answered even while draining: watching the drain finish
  // is exactly what a live scrape is for.
  queue_depth_gauge_.set(service_.queue_depth());
  WireStatsReply reply;
  reply.uptime_ms = ms_since(started_, Clock::now());
  reply.inflight = static_cast<std::uint32_t>(
      std::max(0, global_inflight_.load(std::memory_order_relaxed)));
  reply.queue_depth =
      static_cast<std::uint32_t>(std::max(0, service_.queue_depth()));
  reply.active_connections = static_cast<std::uint32_t>(
      std::max(0, active_connections_.load(std::memory_order_relaxed)));
  reply.draining = draining_.load(std::memory_order_acquire) ? 1 : 0;
  reply.format = request.format;
  reply.body = request.format == WireStatsRequest::kPrometheus
                   ? obs::MetricsRegistry::global().to_prometheus()
                   : obs::MetricsRegistry::global().to_json();
  WriteItem item;
  item.bytes = encode_stats_reply(frame.request_id, reply);
  item.terminal = true;
  item.enqueued_ns = obs::trace_now_ns();
  conn.wqueue.push_back(std::move(item));
  frames_tx_.add();
}

void Server::handle_hello(Connection& conn, const FrameView& frame) {
  GNS_TRACE_SCOPE("net.conn.hello");
  WireHello hello;
  std::string parse_error;
  if (!decode_hello(frame, hello, parse_error)) {
    decode_errors_.add();
    enqueue_error(conn, frame.request_id, NetError::Malformed, parse_error);
    return;
  }
  serve::ServiceCapabilities caps = service_.capabilities();
  WireHelloReply reply;
  reply.draining = draining_.load(std::memory_order_acquire) ? 1 : 0;
  // Never more than this server admits: a router in front of it would
  // place the excess only to get Busy back.
  const int admitted = config_.max_inflight_global;
  reply.max_inflight = static_cast<std::uint32_t>(
      std::clamp(caps.max_inflight.value_or(admitted), 0, admitted));
  reply.current_inflight = static_cast<std::uint32_t>(
      std::max(0, global_inflight_.load(std::memory_order_relaxed)));
  reply.workers = static_cast<std::uint32_t>(std::max(0, caps.workers));
  reply.models = std::move(caps.models);
  if (reply.models.size() > kMaxHelloModels)
    reply.models.resize(kMaxHelloModels);
  WriteItem item;
  item.bytes = encode_hello_reply(frame.request_id, reply);
  item.terminal = true;
  item.enqueued_ns = obs::trace_now_ns();
  conn.wqueue.push_back(std::move(item));
  frames_tx_.add();
}

void Server::take_completions(Connection& conn) {
  for (std::size_t i = 0; i < conn.inflight.size();) {
    Pending& pending = conn.inflight[i];
    if (pending.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++i;
      continue;
    }
    const serve::RolloutResult result = pending.future.get();
    request_ms_.add(ms_since(pending.decoded, Clock::now()));
    enqueue_result(conn, pending, result);
    conn.inflight.erase(conn.inflight.begin() +
                        static_cast<std::ptrdiff_t>(i));
    const int inflight =
        global_inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
    inflight_gauge_.set(std::max(0, inflight));
  }
}

void Server::enqueue_result(Connection& conn, const Pending& pending,
                            const serve::RolloutResult& result) {
  GNS_TRACE_SCOPE_T("net.conn.encode", result.trace_id);
  const std::uint64_t request_id = pending.request_id;
  if (result.status == serve::JobStatus::QueueFull ||
      result.status == serve::JobStatus::BackendLost) {
    // Service-level backpressure surfaces as Busy, same as the server's own
    // in-flight caps: clients have one retry path. A router's lost backend
    // is its own typed error: the request must not be retried blindly.
    const bool busy = result.status == serve::JobStatus::QueueFull;
    if (busy) rejected_backpressure_.add();
    enqueue_error(conn, request_id,
                  busy ? NetError::Busy : NetError::BackendLost,
                  !result.error.empty() ? result.error
                                        : serve::to_string(result.status));
    return;
  }

  Timer serialize_timer;
  // Stream the predicted frames (even a partial prefix from a deadline or
  // cancellation) as chunks, then the terminal status.
  const std::size_t total = result.frames.size();
  for (std::size_t first = 0; first < total;
       first += static_cast<std::size_t>(config_.chunk_frames)) {
    const std::size_t count = std::min(
        static_cast<std::size_t>(config_.chunk_frames), total - first);
    WireChunk chunk;
    chunk.first_frame = static_cast<std::uint32_t>(first);
    chunk.frame_len =
        static_cast<std::uint32_t>(result.frames[first].size());
    chunk.data.reserve(count * chunk.frame_len);
    for (std::size_t f = first; f < first + count; ++f) {
      GNS_CHECK_MSG(result.frames[f].size() == chunk.frame_len,
                    "rollout frames differ in length");
      chunk.data.insert(chunk.data.end(), result.frames[f].begin(),
                        result.frames[f].end());
    }
    WriteItem item;
    item.bytes = encode_rollout_chunk(request_id, chunk);
    item.trace_id = result.trace_id;
    conn.wqueue.push_back(std::move(item));
    frames_tx_.add();
  }

  WireStatus status;
  status.status = result.status;
  status.total_frames = static_cast<std::uint32_t>(total);
  status.queue_ms = result.queue_ms;
  status.exec_ms = result.exec_ms;
  status.total_ms = result.total_ms;
  status.error = result.error;
  status.trace_id = result.trace_id;
  status.cached = result.cached;
  status.cache_outcome = result.cache_outcome;
  status.phases = result.phases;
  // The serialize phase covers the chunk encoding above; the status frame
  // itself is header-sized and cheap, so charging it as already-elapsed
  // time keeps the wire value honest without encoding twice. A relayed
  // result already holds its backend's encode time: the wire value is the
  // sum over every hop. write_us is unknowable until the flush — it stays
  // 0 on the wire and lands in the serve.phase.write_us histogram instead.
  const double serialize_us = serialize_timer.millis() * 1e3;
  status.phases.serialize_us += serialize_us;
  WriteItem item;
  item.bytes = encode_status_reply(request_id, status);
  item.terminal = true;
  item.trace_id = result.trace_id;
  item.enqueued_ns = obs::trace_now_ns();
  conn.wqueue.push_back(std::move(item));
  frames_tx_.add();
  service_.on_serialize(serialize_us);
}

void Server::enqueue_error(Connection& conn, std::uint64_t request_id,
                           NetError code, const std::string& message) {
  const auto index = static_cast<std::size_t>(code);
  if (index < reject_counters_.size() && reject_counters_[index] != nullptr)
    reject_counters_[index]->add();
  WriteItem item;
  item.bytes = encode_error_reply(request_id, {code, message});
  item.terminal = true;
  item.enqueued_ns = obs::trace_now_ns();
  conn.wqueue.push_back(std::move(item));
  frames_tx_.add();
}

bool Server::flush_writes(Connection& conn) {
  GNS_TRACE_SCOPE("net.conn.write");
  while (!conn.wqueue.empty()) {
    const WriteItem& front = conn.wqueue.front();
    while (conn.woff < front.bytes.size()) {
      const ssize_t n = ::send(conn.fd, front.bytes.data() + conn.woff,
                               front.bytes.size() - conn.woff, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          return true;  // kernel buffer full: wait for POLLOUT
        return false;
      }
      conn.woff += static_cast<std::size_t>(n);
      bytes_tx_.add(static_cast<std::uint64_t>(n));
      conn.last_activity = Clock::now();
    }
    if (front.terminal && front.enqueued_ns > 0) {
      // The request's terminal frame left the socket: everything queued
      // behind it for this request (its chunks ran first, FIFO) is out, so
      // enqueue -> now is the request's write/flush phase.
      const std::int64_t now_ns = obs::trace_now_ns();
      service_.on_write(static_cast<double>(now_ns - front.enqueued_ns) *
                        1e-3);
      obs::record_manual_span("net.conn.flush", front.enqueued_ns, now_ns,
                              front.trace_id);
    }
    conn.wqueue.pop_front();
    conn.woff = 0;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Connection servicing: one read/decode/submit/flush/timeout pass per
// event, run as an executor task. The events are the connection's oneshot
// watch, a job's completion notice, and the connection's timeout timer;
// conn->m serializes the passes and stop() against each other.
// ---------------------------------------------------------------------------

void Server::exec_accept() {
  exec::Executor& executor = exec::Executor::global();
  // Held while the fd is in use: stop() closes the listener under it, so
  // once the drain has begun no accept runs and no watch is registered.
  std::lock_guard<std::mutex> lock(listen_mutex_);
  if (listen_fd_ < 0) return;
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN or transient error: wait for the next event
    if (active_connections_.load(std::memory_order_relaxed) >=
            config_.max_connections ||
        !set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_.add();
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    active_connections_gauge_.set(
        active_connections_.load(std::memory_order_relaxed));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->last_activity = Clock::now();
    // Weak: the connection owns this notice. The cell, not `this`, finds
    // the server, which may be gone when an abandoned job resolves.
    conn->on_resolved = [cell = notices_,
                         weak = std::weak_ptr<Connection>(conn)] {
      std::lock_guard<std::mutex> lk(cell->m);
      Server* server = cell->server;
      std::shared_ptr<Connection> c = weak.lock();
      if (server == nullptr || c == nullptr) return;
      server->tasks_.add();
      exec::Executor::global().submit([server, c] {
        server->exec_service(c, 0);
        server->tasks_.done();
      });
    };
    {
      std::lock_guard<std::mutex> lk(econns_mutex_);
      conn->key = next_econn_++;
      econns_[conn->key] = conn;
    }
    // Register under conn->m: the first event task can fire on another
    // worker immediately and reads watch_id when it re-arms.
    std::lock_guard<std::mutex> lk(conn->m);
    tasks_.add();
    conn->watch_id = executor.watch(fd, POLLIN, [this, conn](short re) {
      exec_service(conn, re);
      tasks_.done();
    });
    // A client that never sends still meets the idle timeout.
    arm_timeout(conn, timeout_due(*conn));
  }
  tasks_.add();
  if (!executor.rearm(listen_watch_, POLLIN)) tasks_.done();
}

void Server::exec_service(const std::shared_ptr<Connection>& conn,
                          short revents) {
  {
    std::lock_guard<std::mutex> lock(conn->m);
    if (conn->closed) return;
    bool alive = true;

    if (revents & (POLLERR | POLLHUP | POLLNVAL)) alive = false;
    if (alive && (revents & POLLIN)) {
      alive = read_some(*conn);
      if (alive) process_rbuf(*conn);
    }
    if (alive) take_completions(*conn);
    if (alive && !conn->wqueue.empty()) alive = flush_writes(*conn);
    if (alive && conn->close_after_flush && conn->wqueue.empty())
      alive = false;

    const std::optional<Clock::time_point> due = timeout_due(*conn);
    if (alive && due && Clock::now() >= *due) {
      timeouts_.add();
      alive = false;
    }
    // Drain exit per connection: once nothing is in flight and every
    // reply flushed, the connection closes itself (stop() is waiting).
    if (alive && draining_.load(std::memory_order_acquire) &&
        conn->inflight.empty() && conn->wqueue.empty()) {
      alive = false;
    }

    if (alive) {
      const short events =
          conn->wqueue.empty() ? POLLIN : static_cast<short>(POLLIN | POLLOUT);
      tasks_.add();
      if (!exec::Executor::global().rearm(conn->watch_id, events))
        tasks_.done();
      arm_timeout(conn, due);
      return;
    }
    close_connection(*conn);
  }
  // conn->m released above: econns_mutex_ must never nest inside it.
  std::lock_guard<std::mutex> lock(econns_mutex_);
  econns_.erase(conn->key);
}

std::optional<Server::Clock::time_point> Server::timeout_due(
    const Connection& conn) const {
  if (conn.has_partial) {
    if (config_.read_timeout_ms <= 0) return std::nullopt;
    return conn.partial_since + exec::from_ms(config_.read_timeout_ms);
  }
  if (config_.idle_timeout_ms <= 0 || !conn.inflight.empty() ||
      !conn.wqueue.empty())
    return std::nullopt;
  return conn.last_activity + exec::from_ms(config_.idle_timeout_ms);
}

void Server::arm_timeout(const std::shared_ptr<Connection>& conn,
                         std::optional<Clock::time_point> due) {
  exec::Executor& executor = exec::Executor::global();
  // A timer due no later than the deadline stays: if activity moved the
  // deadline, its pass finds nothing expired and arms a new one. One that
  // already fired cannot be cancelled; its pass decides.
  if (conn->timer != 0 && (!due || conn->timer_due > *due)) {
    if (!executor.cancel_timer(conn->timer)) return;
    tasks_.done();
    conn->timer = 0;
  }
  if (!due || conn->timer != 0) return;
  tasks_.add();
  conn->timer_due = *due;
  conn->timer = executor.schedule_at(*due, [this, conn] {
    {
      std::lock_guard<std::mutex> lock(conn->m);
      conn->timer = 0;
    }
    exec_service(conn, 0);
    tasks_.done();
  });
}

void Server::stop() {
  std::call_once(stop_once_, [this] {
    if (!running_.load(std::memory_order_acquire)) return;
    GNS_INFO("net: draining (stop accepting, flush in-flight)");
    // 1. Stop accepting: close the listener now, so a connect() during the
    //    drain is refused instead of waiting in the backlog until the
    //    drain ends. draining_ is set after the close, so a client told
    //    that the server is draining finds the port closed.
    {
      std::lock_guard<std::mutex> lock(listen_mutex_);
      if (exec::Executor::global().unwatch(listen_watch_)) tasks_.done();
      ::close(listen_fd_);
      listen_fd_ = -1;
      draining_.store(true, std::memory_order_release);
    }
    // 2. Drain: completion notices and socket events keep servicing the
    //    connections, which close themselves once their in-flight jobs
    //    have resolved and flushed; bounded by drain_timeout_ms, after
    //    which stragglers are abandoned and logged.
    const Clock::time_point deadline =
        Clock::now() + exec::from_ms(config_.drain_timeout_ms);
    for (;;) {
      bool dirty = false;
      {
        std::lock_guard<std::mutex> lock(econns_mutex_);
        for (auto& entry : econns_) {
          std::lock_guard<std::mutex> lk(entry.second->m);
          const Connection& conn = *entry.second;
          if (!conn.inflight.empty() || !conn.wqueue.empty()) dirty = true;
        }
      }
      if (!dirty || Clock::now() >= deadline) {
        if (dirty) GNS_WARN("net: drain timeout, abandoning connections");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // 3. Close every remaining connection.
    std::map<std::uint64_t, std::shared_ptr<Connection>> snapshot;
    {
      std::lock_guard<std::mutex> lock(econns_mutex_);
      snapshot.swap(econns_);
    }
    for (auto& entry : snapshot) {
      std::lock_guard<std::mutex> lk(entry.second->m);
      if (!entry.second->closed) close_connection(*entry.second);
    }
    // 4. Notices of jobs still unresolved (abandoned above) find no server.
    {
      std::lock_guard<std::mutex> lock(notices_->m);
      notices_->server = nullptr;
    }
    // 5. Quiesce: wait for the watch, timer and service-pass tasks already
    //    submitted (they see closed connections and return early).
    tasks_.wait_idle();
    running_.store(false, std::memory_order_release);
    obs::flush_env_files();
    GNS_INFO("net: drained and stopped");
  });
}

void Server::close_connection(Connection& conn) {
  exec::Executor& executor = exec::Executor::global();
  conn.closed = true;
  if (executor.unwatch(conn.watch_id)) tasks_.done();
  if (conn.timer != 0 && executor.cancel_timer(conn.timer)) tasks_.done();
  conn.timer = 0;
  // The peer is gone: nobody will read these results. Cancel what the
  // service has not finished and release the in-flight slots.
  for (Pending& pending : conn.inflight) {
    service_.cancel(pending.job_id);
    global_inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
  inflight_gauge_.set(
      std::max(0, global_inflight_.load(std::memory_order_relaxed)));
  conn.inflight.clear();
  ::close(conn.fd);
  conn.fd = -1;
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  active_connections_gauge_.set(
      active_connections_.load(std::memory_order_relaxed));
}

}  // namespace gns::net
