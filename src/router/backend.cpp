#include "router/backend.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace gns::router {

namespace {

using Clock = std::chrono::steady_clock;

/// Idle connections kept per backend; more just close on checkin.
constexpr std::size_t kMaxIdleConns = 8;

double ms_until(Clock::time_point deadline) {
  return std::chrono::duration<double, std::milli>(deadline - Clock::now())
      .count();
}

}  // namespace

bool parse_backend_address(const std::string& spec, BackendAddress& out) {
  std::string host = "127.0.0.1";
  std::string port_str = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host = spec.substr(0, colon);
    port_str = spec.substr(colon + 1);
  }
  if (port_str.empty() || host.empty()) return false;
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port <= 0 || port > 65535)
    return false;
  out.host = host;
  out.port = static_cast<int>(port);
  return true;
}

// ---- BackendConn -----------------------------------------------------------

BackendConn::BackendConn(BackendAddress address)
    : address_(std::move(address)) {}

BackendConn::~BackendConn() { close(); }

bool BackendConn::connect(double timeout_ms) {
  close();
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string port = std::to_string(address_.port);
  if (::getaddrinfo(address_.host.c_str(), port.c_str(), &hints, &results) !=
      0)
    return false;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd_ < 0) continue;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd_, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(results);
      buf_.clear();
      consumed_ = 0;
      return true;
    }
    ::close(fd_);
    fd_ = -1;
  }
  ::freeaddrinfo(results);
  return false;
}

void BackendConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
  consumed_ = 0;
}

bool BackendConn::send_frame(const std::vector<std::uint8_t>& frame) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

BackendConn::ReadStatus BackendConn::read_frame(net::FrameView& frame,
                                                std::string& error,
                                                double timeout_ms) {
  if (consumed_ > 0) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             std::max(0.0, timeout_ms)));
  for (;;) {
    net::DecodeError decode_error;
    const net::DecodeStatus status =
        net::try_decode_frame(buf_.data(), buf_.size(), frame, decode_error);
    if (status == net::DecodeStatus::Ok) {
      consumed_ = frame.frame_bytes;
      return ReadStatus::Ok;
    }
    if (status == net::DecodeStatus::Error) {
      error = "protocol error from backend: " + decode_error.message;
      return ReadStatus::Error;
    }

    const double remaining = ms_until(deadline);
    if (remaining <= 0.0) {
      error = "backend reply timed out";
      return ReadStatus::Timeout;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1,
                          static_cast<int>(std::min(remaining, 1000.0)) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      error = std::string("poll failed: ") + std::strerror(errno);
      return ReadStatus::Error;
    }
    if (rc == 0) continue;  // tick; deadline re-checked above
    std::uint8_t chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      error = "backend closed the connection";
      return ReadStatus::Closed;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      error = std::string("recv failed: ") + std::strerror(errno);
      return ReadStatus::Error;
    }
    buf_.insert(buf_.end(), chunk, chunk + n);
  }
}

// ---- Backend ---------------------------------------------------------------

Backend::Backend(BackendAddress address, BackendTuning tuning)
    : address_(std::move(address)),
      tuning_(tuning),
      backoff_ms_(tuning.readmit_backoff_ms) {}

std::unique_ptr<BackendConn> Backend::checkout(std::string& error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<BackendConn> conn = std::move(idle_.back());
      idle_.pop_back();
      return conn;
    }
  }
  auto conn = std::make_unique<BackendConn>(address_);
  if (!conn->connect(tuning_.connect_timeout_ms)) {
    error = "connect to " + label() + " failed";
    return nullptr;
  }
  if (!handshake(*conn, error)) return nullptr;
  return conn;
}

void Backend::checkin(std::unique_ptr<BackendConn> conn) {
  if (!conn || !conn->connected()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // An eviction between checkout and checkin closed the pool; a stale
  // connection must not outlive that decision.
  if (health_ == BackendHealth::Evicted) return;
  if (idle_.size() < kMaxIdleConns) idle_.push_back(std::move(conn));
}

bool Backend::handshake(BackendConn& conn, std::string& error) {
  net::WireHello hello;
  hello.kind = net::WireHello::kRouter;
  const std::uint64_t request_id = conn.next_request_id();
  if (!conn.send_frame(net::encode_hello(request_id, hello))) {
    error = "hello send to " + label() + " failed";
    return false;
  }
  net::FrameView frame;
  const BackendConn::ReadStatus status =
      conn.read_frame(frame, error, tuning_.hello_timeout_ms);
  if (status != BackendConn::ReadStatus::Ok) {
    if (error.empty()) error = "hello to " + label() + " got no reply";
    return false;
  }

  std::string parse_error;
  if (frame.type == net::MessageType::HelloReply) {
    net::WireHelloReply reply;
    if (!net::decode_hello_reply(frame, reply, parse_error)) {
      error = "bad hello reply from " + label() + ": " + parse_error;
      return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    caps_.draining = reply.draining != 0;
    caps_.models.assign(reply.models.begin(), reply.models.end());
    caps_.capacity = static_cast<int>(
        std::min<std::uint32_t>(reply.max_inflight, 1u << 20));
    caps_.workers = static_cast<int>(reply.workers);
    caps_known_ = true;
    return true;
  }
  if (frame.type == net::MessageType::ErrorReply) {
    net::WireError wire_error;
    if (!net::decode_error_reply(frame, wire_error, parse_error))
      wire_error.message = parse_error;
    error = "hello to " + label() + " rejected: " + wire_error.message;
    return false;
  }
  error = "unexpected reply type to hello from " + label();
  return false;
}

BackendCapabilities Backend::capabilities() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return caps_;
}

bool Backend::serves(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!caps_known_) return true;  // optimistic wildcard
  return std::find(caps_.models.begin(), caps_.models.end(), model) !=
         caps_.models.end();
}

int Backend::placement_capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!caps_known_) return 1 << 20;  // effectively unlimited until known
  return std::max(1, caps_.capacity);
}

void Backend::set_draining(bool draining) {
  std::lock_guard<std::mutex> lock(mutex_);
  caps_.draining = draining;
}

BackendHealth Backend::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_;
}

void Backend::mark_healthy() {
  std::lock_guard<std::mutex> lock(mutex_);
  health_ = BackendHealth::Healthy;
  backoff_ms_ = tuning_.readmit_backoff_ms;
}

void Backend::evict() {
  std::vector<std::unique_ptr<BackendConn>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    health_ = BackendHealth::Evicted;
    evicted_until_ =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               backoff_ms_));
    backoff_ms_ = std::min(backoff_ms_ * 2.0, tuning_.readmit_backoff_max_ms);
    // A fresh re-admission must also re-handshake: the peer may come back
    // as a different binary (new models, new version).
    caps_known_ = false;
    doomed.swap(idle_);
  }
  // Closed outside the lock; ~BackendConn does the work.
}

bool Backend::readmit_due() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_ == BackendHealth::Evicted && Clock::now() >= evicted_until_;
}

}  // namespace gns::router
