#include "exec/event_thread.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace gns::exec {

namespace {

obs::Counter& scheduled_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.timer.scheduled");
  return c;
}
obs::Counter& fired_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.timer.fired");
  return c;
}
obs::Counter& cancelled_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.timer.cancelled");
  return c;
}
obs::Counter& events_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.io.events");
  return c;
}

// Watches take and report poll() bits; epoll's are the same numbers.
static_assert(EPOLLIN == POLLIN && EPOLLPRI == POLLPRI &&
                  EPOLLOUT == POLLOUT && EPOLLERR == POLLERR &&
                  EPOLLHUP == POLLHUP,
              "epoll and poll event bits differ");

/// epoll_pwait2 with a nanosecond timeout (< 0: none). A kernel or seccomp
/// filter without it (before Linux 5.11) turns `pwait2` off for good, and
/// epoll_wait then waits a millisecond timeout rounded up: a timer must
/// never fire early.
int wait_events(int epoll_fd, bool& pwait2, epoll_event* ready, int capacity,
                std::int64_t timeout_ns) {
  if (pwait2) {
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
    const int n = ::epoll_pwait2(epoll_fd, ready, capacity,
                                 timeout_ns < 0 ? nullptr : &ts, nullptr);
    if (n >= 0 || (errno != ENOSYS && errno != EPERM)) return n;
    pwait2 = false;
  }
  const int ms =
      timeout_ns < 0
          ? -1
          : static_cast<int>(std::min<std::int64_t>(
                (timeout_ns + 999'999) / 1'000'000, INT_MAX));
  return ::epoll_wait(epoll_fd, ready, capacity, ms);
}

}  // namespace

EventThread::EventThread(Submit submit) : submit_(std::move(submit)) {
  // Without the wake pipe a new soonest timer, or the destructor, would
  // wait for an unrelated event, possibly forever.
  GNS_CHECK_MSG(::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) == 0,
                "event thread: no wake pipe");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  GNS_CHECK_MSG(epoll_fd_ >= 0, "event thread: no epoll instance");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // watch ids start at 1
  GNS_CHECK_MSG(
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev) == 0,
      "event thread: cannot watch the wake pipe");
  thread_ = std::thread([this] { loop(); });
}

EventThread::~EventThread() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  wake();
  thread_.join();
  ::close(epoll_fd_);
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void EventThread::wake() {
  // A full pipe already guarantees a wake-up, so a failed write is fine.
  const char b = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
}

EventThread::TimerId EventThread::schedule_at(Clock::time_point due,
                                              std::function<void()> fn) {
  TimerId id;
  bool soonest;
  {
    std::lock_guard<std::mutex> lk(m_);
    id = next_timer_++;
    timers_.emplace(std::make_pair(due, id), std::move(fn));
    due_of_.emplace(id, due);
    soonest = timers_.begin()->first.second == id;
  }
  // Only a new soonest timer shortens the thread's current wait.
  if (soonest) wake();
  scheduled_counter().add(1);
  return id;
}

bool EventThread::cancel_timer(TimerId id) {
  std::function<void()> fn;  // destroyed after the lock is released
  {
    std::lock_guard<std::mutex> lk(m_);
    auto it = due_of_.find(id);
    if (it == due_of_.end()) return false;
    fn = std::move(timers_.extract(std::make_pair(it->second, id)).mapped());
    due_of_.erase(it);
  }
  cancelled_counter().add(1);
  return true;
}

int EventThread::watch(int fd, short events, WatchFn fn) {
  std::lock_guard<std::mutex> lk(m_);
  const int id = next_watch_++;
  arm(watches_.emplace(id, Watch{fd, false, std::move(fn)}).first,
      EPOLL_CTL_ADD, events);
  return id;
}

bool EventThread::rearm(int id, short events) {
  std::lock_guard<std::mutex> lk(m_);
  auto it = watches_.find(id);
  if (it == watches_.end()) return false;
  const bool was_armed = it->second.armed;
  arm(it, EPOLL_CTL_MOD, events);
  return !was_armed;
}

bool EventThread::unwatch(int id) {
  WatchFn fn;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lk(m_);
  auto it = watches_.find(id);
  if (it == watches_.end()) return false;
  // No wake: the removal holds for a wait already in progress.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  const bool armed = it->second.armed;
  fn = std::move(it->second.fn);
  watches_.erase(it);
  return armed;
}

// Under m_. No wake: a wait in progress sees an added or re-armed fd
// that is ready.
void EventThread::arm(Watches::iterator it, int op, short events) {
  epoll_event ev{};
  ev.events = static_cast<std::uint16_t>(events) | EPOLLONESHOT;
  ev.data.u64 = static_cast<std::uint64_t>(it->first);
  if (::epoll_ctl(epoll_fd_, op, it->second.fd, &ev) == 0) {
    it->second.armed = true;
    return;
  }
  fire(it, POLLNVAL);
}

void EventThread::fire(Watches::iterator it, short revents) {
  it->second.armed = false;  // oneshot: the callback re-arms
  submit_([fn = it->second.fn, revents] { fn(revents); });
  events_counter().add(1);
}

void EventThread::loop() {
  constexpr int kCapacity = 64;
  epoll_event ready[kCapacity];
  bool pwait2 = true;
  std::unique_lock<std::mutex> lk(m_);
  while (!stop_) {
    const Clock::time_point now = Clock::now();
    std::uint64_t fired = 0;
    while (!timers_.empty() && timers_.begin()->first.first <= now) {
      auto node = timers_.extract(timers_.begin());
      due_of_.erase(node.key().second);
      submit_(std::move(node.mapped()));
      ++fired;
    }
    if (fired > 0) fired_counter().add(fired);

    std::int64_t timeout_ns = -1;  // no timer armed: wait until woken
    if (!timers_.empty()) {
      timeout_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       timers_.begin()->first.first - now)
                       .count();
    }
    lk.unlock();
    const int n = wait_events(epoll_fd_, pwait2, ready, kCapacity, timeout_ns);
    lk.lock();
    for (int i = 0; i < n; ++i) {
      if (ready[i].data.u64 == 0) {
        char buf[64];
        while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      // Skipped when unwatched since, or when a rearm() raced the report
      // and this watch was dispatched already: its callback re-arms.
      auto it = watches_.find(static_cast<int>(ready[i].data.u64));
      if (it == watches_.end() || !it->second.armed) continue;
      fire(it, static_cast<short>(ready[i].events));
    }
  }
}

}  // namespace gns::exec
