#include "router/backend.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
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
constexpr std::size_t kReadChunkBytes = 64 * 1024;

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

BackendConn::BackendConn(BackendAddress address, double connect_timeout_ms,
                         exec::TaskCount& tasks)
    : address_(std::move(address)),
      connect_timeout_(exec::from_ms(connect_timeout_ms)),
      tasks_(tasks) {}

BackendConn::~BackendConn() {
  std::lock_guard<std::mutex> lock(m_);
  close_locked();
}

void BackendConn::exchange(std::vector<std::uint8_t> frame,
                           double frame_timeout_ms, OnFrame on_frame,
                           OnFailure on_failure) {
  std::lock_guard<std::mutex> lock(m_);
  // Only its holder exchanges on a connection it took fresh or
  // reusable(). A final callback can pool it before on_ready() has seen
  // the rest of its read, and bytes past the reply then close it under
  // the next holder: that exchange fails like a lost connection.
  if (state_ == State::Closed || peer_closed_) {
    tasks_.add();
    exec::Executor::global().submit(
        [on_failure = std::move(on_failure), tasks = &tasks_] {
          on_failure("backend connection closed");
          tasks->done();
        });
    return;
  }
  ++exchange_;
  on_frame_ = std::move(on_frame);
  on_failure_ = std::move(on_failure);
  wbuf_ = std::move(frame);
  woff_ = 0;
  frame_timeout_ = exec::from_ms(frame_timeout_ms);
  if (state_ == State::Fresh) {
    state_ = State::Connecting;
    deadline_ = Clock::now() + connect_timeout_;
    tasks_.add();
    exec::Executor::global().submit([weak = weak_from_this(), tasks = &tasks_] {
      if (std::shared_ptr<BackendConn> self = weak.lock())
        self->start_connect();
      tasks->done();
    });
    return;
  }
  state_ = State::Busy;
  deadline_ = Clock::now() + frame_timeout_;
  rearm_locked(POLLIN | POLLOUT);
  arm_timer_locked(deadline_);
}

void BackendConn::start_connect() {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  std::string why = "cannot resolve " + address_.host;
  int fd = -1;
  if (::getaddrinfo(address_.host.c_str(),
                    std::to_string(address_.port).c_str(), &hints,
                    &results) == 0) {
    for (addrinfo* ai = results; ai != nullptr && fd < 0; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family,
                    ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                    ai->ai_protocol);
      if (fd >= 0 && ::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0 &&
          errno != EINPROGRESS) {
        why = std::string("connect failed: ") + std::strerror(errno);
        ::close(fd);
        fd = -1;
      }
    }
    ::freeaddrinfo(results);
  }
  std::function<void()> report;
  {
    std::lock_guard<std::mutex> lock(m_);
    if (state_ != State::Connecting) {  // closed while resolving
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      report = fail_locked(why);
    } else {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      // The connect completes when the socket turns writable.
      tasks_.add();
      watch_ = exec::Executor::global().watch(
          fd_, POLLOUT,
          [weak = weak_from_this(), tasks = &tasks_](short revents) {
            if (std::shared_ptr<BackendConn> self = weak.lock())
              self->on_ready(revents);
            tasks->done();
          });
      arm_timer_locked(deadline_);
    }
  }
  if (report) report();
}

void BackendConn::on_ready(short revents) {
  std::vector<std::uint8_t> data;
  std::string why;  // set once the connection is lost
  std::uint64_t exchange = 0;
  OnFrame on_frame;
  {
    std::lock_guard<std::mutex> lock(m_);
    if (state_ == State::Connecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err == 0 && (revents & POLLOUT) == 0) err = ECONNREFUSED;
      if (err != 0) why = std::string("connect failed: ") + std::strerror(err);
      state_ = State::Busy;
      deadline_ = Clock::now() + frame_timeout_;
      arm_timer_locked(deadline_);
    }
    if (state_ != State::Busy) return;  // closed meanwhile
    while (why.empty() && woff_ < wbuf_.size()) {
      const ssize_t n = ::send(fd_, wbuf_.data() + woff_,
                               wbuf_.size() - woff_, MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
        break;
      if (n < 0)
        why = std::string("send failed: ") + std::strerror(errno);
      else
        woff_ += static_cast<std::size_t>(n);
    }
    // A reply can arrive just before a reset: read it before judging.
    const std::size_t buffered = rbuf_.size();
    std::uint8_t chunk[kReadChunkBytes];
    while (why.empty()) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        rbuf_.insert(rbuf_.end(), chunk, chunk + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
        break;
      why = n == 0 ? "backend closed the connection"
                   : std::string("recv failed: ") + std::strerror(errno);
    }
    // Lost: the exchange's last reply may still be handed out, but the
    // connection must not go back to the pool.
    if (!why.empty()) peer_closed_ = true;
    // Bytes restart the wait, before they are handed out: the timer must
    // not close the connection under a callback that is reusing it.
    if (rbuf_.size() > buffered) deadline_ = Clock::now() + frame_timeout_;
    data.swap(rbuf_);
    exchange = exchange_;
    on_frame = on_frame_;
  }

  std::size_t used = 0;
  bool done = false;
  while (!done) {
    net::FrameView frame;
    net::DecodeError error;
    const net::DecodeStatus status = net::try_decode_frame(
        data.data() + used, data.size() - used, frame, error);
    if (status == net::DecodeStatus::NeedMore) break;
    if (status == net::DecodeStatus::Error) {
      why = "protocol error from backend: " + error.message;
      break;
    }
    used += frame.frame_bytes;
    done = on_frame(frame);
  }

  std::function<void()> report;
  {
    std::lock_guard<std::mutex> lock(m_);
    if (state_ == State::Closed) return;
    const bool current = exchange == exchange_;
    if (current && done) {
      state_ = State::Idle;
      on_frame_ = nullptr;
      on_failure_ = nullptr;
      if (timer_ != 0 && exec::Executor::global().cancel_timer(timer_)) {
        tasks_.done();
        timer_ = 0;
      }
    } else if (current) {
      rbuf_.assign(data.begin() + static_cast<std::ptrdiff_t>(used),
                   data.end());
    }
    if (done && used < data.size()) why = "backend sent bytes after a reply";
    if (!why.empty())
      report = fail_locked(why);
    else if (current && !done)
      rearm_locked(woff_ < wbuf_.size() ? static_cast<short>(POLLIN | POLLOUT)
                                        : POLLIN);
  }
  if (report) report();
}

void BackendConn::on_timer() {
  std::function<void()> report;
  {
    std::lock_guard<std::mutex> lock(m_);
    timer_ = 0;
    if (state_ != State::Connecting && state_ != State::Busy) return;
    if (Clock::now() < deadline_)
      arm_timer_locked(deadline_);
    else
      report = fail_locked(state_ == State::Connecting
                               ? "connect timed out"
                               : "backend reply timed out");
  }
  if (report) report();
}

void BackendConn::arm_timer_locked(Clock::time_point due) {
  exec::Executor& executor = exec::Executor::global();
  // A timer due no later than `due` stays: its callback finds the deadline
  // moved and re-arms. One that already fired cannot be cancelled; its
  // callback re-arms.
  if (timer_ != 0) {
    if (timer_due_ <= due || !executor.cancel_timer(timer_)) return;
    tasks_.done();
  }
  tasks_.add();
  timer_due_ = due;
  timer_ = executor.schedule_at(
      due, [weak = weak_from_this(), tasks = &tasks_] {
        if (std::shared_ptr<BackendConn> self = weak.lock()) self->on_timer();
        tasks->done();
      });
}

void BackendConn::rearm_locked(short events) {
  tasks_.add();
  if (!exec::Executor::global().rearm(watch_, events)) tasks_.done();
}

std::function<void()> BackendConn::fail_locked(const std::string& why) {
  OnFailure report = std::move(on_failure_);
  close_locked();
  if (!report) return {};
  return [report = std::move(report), why] { report(why); };
}

void BackendConn::close_locked() {
  if (state_ == State::Closed) return;
  state_ = State::Closed;
  exec::Executor& executor = exec::Executor::global();
  if (watch_ > 0 && executor.unwatch(watch_)) tasks_.done();
  if (timer_ != 0 && executor.cancel_timer(timer_)) {
    tasks_.done();
    timer_ = 0;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  on_frame_ = nullptr;
  on_failure_ = nullptr;
}

void BackendConn::close() {
  std::lock_guard<std::mutex> lock(m_);
  close_locked();
}

bool BackendConn::reusable() {
  std::lock_guard<std::mutex> lock(m_);
  if ((state_ != State::Idle && state_ != State::Busy) || peer_closed_)
    return false;
  // Nothing watches an idle connection, so a peer that has closed it since
  // (its idle timeout, a restart) shows only as a readable socket: EOF, an
  // error, or bytes no request asked for. None of them can carry the next
  // exchange.
  if (state_ == State::Idle) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 0) != 0) {
      peer_closed_ = true;
      return false;
    }
  }
  return true;
}

// ---- Backend ---------------------------------------------------------------

Backend::Backend(BackendAddress address, BackendTuning tuning,
                 exec::TaskCount& tasks)
    : address_(std::move(address)),
      tuning_(tuning),
      tasks_(tasks),
      backoff_ms_(tuning.readmit_backoff_ms) {}

std::shared_ptr<BackendConn> Backend::take_idle() {
  std::lock_guard<std::mutex> lock(mutex_);
  while (!idle_.empty()) {
    std::shared_ptr<BackendConn> conn = std::move(idle_.back());
    idle_.pop_back();
    if (conn->reusable()) return conn;  // a closed or stale one drops
  }
  return nullptr;
}

std::shared_ptr<BackendConn> Backend::dial(double hello_timeout_ms,
                                           HelloDone done) {
  auto conn = std::make_shared<BackendConn>(
      address_, tuning_.connect_timeout_ms, tasks_);
  hello(conn, hello_timeout_ms, std::move(done));
  return conn;
}

void Backend::hello(const std::shared_ptr<BackendConn>& conn,
                    double hello_timeout_ms, HelloDone done) {
  net::WireHello hello;
  hello.kind = net::WireHello::kRouter;
  conn->exchange(
      net::encode_hello(conn->next_request_id(), hello), hello_timeout_ms,
      [this, conn, done](const net::FrameView& frame) {
        const std::string error = learn(frame);
        if (!error.empty()) conn->close();
        done(conn, error);
        return true;
      },
      [this, conn, done](const std::string& why) {
        done(conn, "hello to " + label() + " failed: " + why);
      });
}

std::string Backend::learn(const net::FrameView& reply) {
  std::string parse_error;
  if (reply.type == net::MessageType::ErrorReply) {
    net::WireError error;
    if (!net::decode_error_reply(reply, error, parse_error))
      error.message = parse_error;
    return "hello to " + label() + " rejected: " + error.message;
  }
  net::WireHelloReply hello;
  if (reply.type != net::MessageType::HelloReply)
    return "unexpected reply type to hello from " + label();
  if (!net::decode_hello_reply(reply, hello, parse_error))
    return "bad hello reply from " + label() + ": " + parse_error;
  std::lock_guard<std::mutex> lock(mutex_);
  caps_.draining = hello.draining != 0;
  caps_.models.assign(hello.models.begin(), hello.models.end());
  caps_.capacity =
      static_cast<int>(std::min<std::uint32_t>(hello.max_inflight, 1u << 20));
  caps_.workers = static_cast<int>(hello.workers);
  caps_known_ = true;
  return {};
}

void Backend::checkin(std::shared_ptr<BackendConn> conn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // An eviction between checkout and checkin closed the pool; a stale
    // connection must not outlive that decision.
    if (health_ != BackendHealth::Evicted && idle_.size() < kMaxIdleConns &&
        conn->reusable()) {
      idle_.push_back(std::move(conn));
      return;
    }
  }
  conn->close();
}

void Backend::close_idle() {
  std::vector<std::shared_ptr<BackendConn>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    doomed.swap(idle_);
  }
  for (const std::shared_ptr<BackendConn>& conn : doomed) conn->close();
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
  {
    std::lock_guard<std::mutex> lock(mutex_);
    health_ = BackendHealth::Evicted;
    evicted_until_ = Clock::now() + exec::from_ms(backoff_ms_);
    backoff_ms_ = std::min(backoff_ms_ * 2.0, tuning_.readmit_backoff_max_ms);
    // A fresh re-admission must also re-handshake: the peer may come back
    // as a different binary (new models, new version).
    caps_known_ = false;
  }
  close_idle();
}

bool Backend::readmit_due() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_ == BackendHealth::Evicted && Clock::now() >= evicted_until_;
}

}  // namespace gns::router
