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

Server::Server(serve::JobScheduler& scheduler, ServerConfig config)
    : scheduler_(scheduler),
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
  GNS_CHECK_MSG(config_.max_protocol_version >= kMinProtocolVersion &&
                    config_.max_protocol_version <= kProtocolVersion,
                "Server max_protocol_version out of supported range");
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

  // No threads of our own: the bridge's poller turns listener/connection
  // readiness into tasks on the global executor.
  started_ = Clock::now();
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  bridge_ = std::make_unique<exec::IoBridge>(exec::Executor::global());
  {
    // The first accept task can run before watch() returns; it re-arms
    // through listen_watch_, so publish the id under the same lock.
    std::lock_guard<std::mutex> lock(listen_mutex_);
    listen_watch_ = bridge_->watch(listen_fd_, POLLIN,
                                   [this](short re) { exec_accept(re); });
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

    // A frame above this build's admitted version is what a pre-v3 binary
    // would call BadVersion: fatal, framing no longer trusted. The error
    // reply goes out in this server's own (older) version — the router
    // reads that byte to learn what the backend actually speaks.
    if (frame.version > config_.max_protocol_version) {
      decode_errors_.add();
      enqueue_error(conn, frame.request_id, NetError::BadVersion,
                    "unsupported protocol version " +
                        std::to_string(frame.version));
      conn.rbuf_consumed = conn.rbuf.size();
      conn.close_after_flush = true;
      break;
    }

    frames_rx_.add();
    conn.peer_version = frame.version;
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

  serve::JobTicket ticket = scheduler_.submit(std::move(request));
  // The scheduler resolves rejections (QueueFull / expired deadline /
  // ShutDown) immediately; pump_completions translates them. QueueFull is
  // additionally counted as backpressure when it surfaces there.
  Pending pending;
  pending.request_id = frame.request_id;
  pending.job_id = ticket.id;
  pending.future = std::move(ticket.result);
  pending.decoded = Clock::now();
  pending.version = frame.version;
  conn.inflight.push_back(std::move(pending));
  const int inflight =
      global_inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  inflight_gauge_.set(inflight);
  queue_depth_gauge_.set(scheduler_.queue_depth());
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
  queue_depth_gauge_.set(scheduler_.queue_depth());
  WireStatsReply reply;
  reply.uptime_ms = ms_since(started_, Clock::now());
  reply.inflight = static_cast<std::uint32_t>(
      std::max(0, global_inflight_.load(std::memory_order_relaxed)));
  reply.queue_depth =
      static_cast<std::uint32_t>(std::max(0, scheduler_.queue_depth()));
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
  WireHelloReply reply;
  reply.protocol_version = config_.max_protocol_version;
  reply.draining = draining_.load(std::memory_order_acquire) ? 1 : 0;
  reply.max_inflight =
      static_cast<std::uint32_t>(std::max(1, config_.max_inflight_global));
  reply.current_inflight = static_cast<std::uint32_t>(
      std::max(0, global_inflight_.load(std::memory_order_relaxed)));
  reply.workers =
      static_cast<std::uint32_t>(std::max(0, scheduler_.workers()));
  reply.models = scheduler_.registry()->names();
  if (reply.models.size() > kMaxHelloModels)
    reply.models.resize(kMaxHelloModels);
  WriteItem item;
  item.bytes = encode_hello_reply(frame.request_id, reply, frame.version);
  item.terminal = true;
  item.enqueued_ns = obs::trace_now_ns();
  conn.wqueue.push_back(std::move(item));
  frames_tx_.add();
}

std::size_t Server::pump_completions(Connection& conn) {
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
  return conn.inflight.size();
}

void Server::enqueue_result(Connection& conn, const Pending& pending,
                            const serve::RolloutResult& result) {
  GNS_TRACE_SCOPE_T("net.conn.encode", result.trace_id);
  const std::uint64_t request_id = pending.request_id;
  if (result.status == serve::JobStatus::QueueFull) {
    // Scheduler-level backpressure surfaces as Busy, same as the server's
    // own in-flight caps: clients have one retry path.
    rejected_backpressure_.add();
    enqueue_error(conn, request_id, NetError::Busy, "scheduler queue full");
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
    item.bytes = encode_rollout_chunk(request_id, chunk, pending.version);
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
  // time keeps the wire value honest without encoding twice. write_us is
  // unknowable until the flush — it stays 0 on the wire and lands in the
  // serve.phase.write_us histogram instead.
  status.phases.serialize_us = serialize_timer.millis() * 1e3;
  WriteItem item;
  item.bytes = encode_status_reply(request_id, status, pending.version);
  item.terminal = true;
  item.trace_id = result.trace_id;
  item.enqueued_ns = obs::trace_now_ns();
  conn.wqueue.push_back(std::move(item));
  frames_tx_.add();
  scheduler_.stats().on_serialize(status.phases.serialize_us);
}

void Server::enqueue_error(Connection& conn, std::uint64_t request_id,
                           NetError code, const std::string& message) {
  const auto index = static_cast<std::size_t>(code);
  if (index < reject_counters_.size() && reject_counters_[index] != nullptr)
    reject_counters_[index]->add();
  WriteItem item;
  item.bytes = encode_error_reply(request_id, {code, message},
                                  conn.peer_version);
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
      scheduler_.stats().on_write(
          static_cast<double>(now_ns - front.enqueued_ns) * 1e-3);
      obs::record_manual_span("net.conn.flush", front.enqueued_ns, now_ns,
                              front.trace_id);
    }
    conn.wqueue.pop_front();
    conn.woff = 0;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Connection servicing: one read/decode/pump/flush/timeout cycle per
// connection, run as oneshot-watch tasks on the global executor. ec->m
// serializes the watch callback, pump-timer callback, and stop() against
// each other; the oneshot watch guarantees at most one socket-event task
// per connection.
// ---------------------------------------------------------------------------

struct Server::ExecConn {
  std::mutex m;
  Connection conn;
  std::uint64_t key = 0;
  int watch_id = -1;
  bool closed = false;
  bool pump_armed = false;
  exec::Executor::TimerId pump_timer = 0;
};

void Server::exec_accept(short /*revents*/) {
  if (draining_.load(std::memory_order_acquire)) return;  // stop() unwatches
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN or transient error: back to the poller
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
    auto ec = std::make_shared<ExecConn>();
    ec->conn.fd = fd;
    ec->conn.last_activity = Clock::now();
    // Until the peer speaks, answer in the newest version this server
    // admits — what a binary of that era would do.
    ec->conn.peer_version = config_.max_protocol_version;
    {
      std::lock_guard<std::mutex> lock(econns_mutex_);
      ec->key = next_econn_++;
      econns_[ec->key] = ec;
    }
    // Register under ec->m: the first event task can fire on another
    // worker immediately and reads watch_id when it re-arms.
    std::lock_guard<std::mutex> lk(ec->m);
    ec->watch_id = bridge_->watch(
        fd, POLLIN, [this, ec](short re) { exec_service(ec, re); });
  }
  std::lock_guard<std::mutex> lock(listen_mutex_);
  bridge_->rearm(listen_watch_, POLLIN);  // no-op once stop() unwatched it
}

void Server::exec_service(const std::shared_ptr<ExecConn>& ec,
                          short revents) {
  bool erase = false;
  {
    std::lock_guard<std::mutex> lock(ec->m);
    if (ec->closed) return;
    Connection& conn = ec->conn;
    bool alive = true;

    if (revents & (POLLERR | POLLHUP | POLLNVAL)) alive = false;
    if (alive && (revents & POLLIN)) {
      alive = read_some(conn);
      if (alive) process_rbuf(conn);
    }
    if (alive) pump_completions(conn);
    if (alive && !conn.wqueue.empty()) alive = flush_writes(conn);
    if (alive && conn.close_after_flush && conn.wqueue.empty()) alive = false;

    const Clock::time_point now = Clock::now();
    if (alive && config_.read_timeout_ms > 0 && conn.has_partial &&
        ms_since(conn.partial_since, now) > config_.read_timeout_ms) {
      timeouts_.add();
      alive = false;
    }
    if (alive && config_.idle_timeout_ms > 0 && conn.inflight.empty() &&
        conn.wqueue.empty() && !conn.has_partial &&
        ms_since(conn.last_activity, now) > config_.idle_timeout_ms) {
      timeouts_.add();
      alive = false;
    }
    // Drain exit per connection: once nothing is in flight and every
    // reply flushed, the connection closes itself (stop() is waiting).
    if (alive && draining_.load(std::memory_order_acquire) &&
        conn.inflight.empty() && conn.wqueue.empty()) {
      alive = false;
    }

    if (!alive) {
      ec->closed = true;
      if (ec->pump_timer != 0 &&
          exec::Executor::global().cancel_timer(ec->pump_timer)) {
        exec_pending_.fetch_sub(1, std::memory_order_acq_rel);
      }
      ec->pump_timer = 0;
      ec->pump_armed = false;
      bridge_->unwatch(ec->watch_id);
      close_connection(conn);
      erase = true;
    } else {
      short events = POLLIN;
      if (!conn.wqueue.empty()) events |= POLLOUT;
      bridge_->rearm(ec->watch_id, events);
      // Futures are poll-checked, so a connection with work pending gets a
      // tight 2 ms pump tick and an idle one a relaxed 50 ms tick.
      if (!ec->pump_armed) {
        const bool busy = !conn.inflight.empty() || !conn.wqueue.empty() ||
                          conn.has_partial ||
                          draining_.load(std::memory_order_acquire);
        ec->pump_armed = true;
        exec_pending_.fetch_add(1, std::memory_order_acq_rel);
        ec->pump_timer = exec::Executor::global().schedule_after(
            busy ? 2.0 : 50.0, [this, ec] {
              {
                std::lock_guard<std::mutex> lk(ec->m);
                ec->pump_armed = false;
                ec->pump_timer = 0;
              }
              exec_service(ec, 0);
              exec_pending_.fetch_sub(1, std::memory_order_acq_rel);
            });
      }
    }
  }
  if (erase) {
    // ec->m released above: econns_mutex_ must never nest inside it.
    std::lock_guard<std::mutex> lock(econns_mutex_);
    econns_.erase(ec->key);
  }
}

void Server::stop() {
  std::call_once(stop_once_, [this] {
    if (!running_.load(std::memory_order_acquire)) return;
    GNS_INFO("net: draining (stop accepting, flush in-flight)");
    draining_.store(true, std::memory_order_release);
    // 1. Stop accepting. The listener fd stays open until the bridge stops:
    //    an already-submitted accept task may still be using it.
    {
      std::lock_guard<std::mutex> lock(listen_mutex_);
      bridge_->unwatch(listen_watch_);
      listen_watch_ = -1;
    }
    // 2. Drain: connections close themselves once their in-flight jobs have
    //    resolved and flushed (pump timers keep servicing them); bounded by
    //    drain_timeout_ms, after which stragglers are abandoned and logged.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               config_.drain_timeout_ms));
    for (;;) {
      bool dirty = false;
      {
        std::lock_guard<std::mutex> lock(econns_mutex_);
        for (auto& entry : econns_) {
          std::lock_guard<std::mutex> lk(entry.second->m);
          const Connection& conn = entry.second->conn;
          if (!conn.inflight.empty() || !conn.wqueue.empty()) dirty = true;
        }
      }
      if (!dirty || Clock::now() >= deadline) {
        if (dirty) GNS_WARN("net: drain timeout, abandoning connections");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // 3. Close every remaining connection and cancel its pump timer.
    std::map<std::uint64_t, std::shared_ptr<ExecConn>> snapshot;
    {
      std::lock_guard<std::mutex> lock(econns_mutex_);
      snapshot.swap(econns_);
    }
    for (auto& entry : snapshot) {
      ExecConn& ec = *entry.second;
      std::lock_guard<std::mutex> lk(ec.m);
      if (ec.closed) continue;
      ec.closed = true;
      if (ec.pump_timer != 0 &&
          exec::Executor::global().cancel_timer(ec.pump_timer)) {
        exec_pending_.fetch_sub(1, std::memory_order_acq_rel);
      }
      ec.pump_timer = 0;
      bridge_->unwatch(ec.watch_id);
      close_connection(ec.conn);
    }
    // 4. Quiesce: the bridge joins its poller and drains watch-callback
    //    tasks; pump-timer callbacks are tracked separately via
    //    exec_pending_ (they see closed connections and return early).
    bridge_->stop();
    while (exec_pending_.load(std::memory_order_acquire) > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    bridge_.reset();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    running_.store(false, std::memory_order_release);
    obs::flush_env_files();
    GNS_INFO("net: drained and stopped");
  });
}

void Server::close_connection(Connection& conn) {
  if (conn.fd < 0) return;
  // The peer is gone: nobody will read these results. Cancel what the
  // scheduler has not started and release the in-flight slots.
  for (Pending& pending : conn.inflight) {
    scheduler_.cancel(pending.job_id);
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
