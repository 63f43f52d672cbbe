#pragma once

/// \file event_thread.hpp
/// The executor's one event thread: timers and fd watches share one wait.
///
/// The thread waits in epoll on a wake pipe plus every armed fd watch,
/// with a timeout that ends at the soonest armed timer (none armed: it
/// sleeps until woken, so an idle process does not wake up). Watches live
/// in the kernel's epoll set, so a timer wake touches no fd and watch(),
/// rearm() and unwatch() need no wake. Due timers and ready watches are
/// dispatched under the thread's lock, and dispatching only submits their
/// callbacks as executor tasks — no user code runs on this thread. So:
///
///   * cancel_timer() or unwatch() returning true means that callback
///     never runs;
///   * neither call ever waits on a callback, only on a concurrent submit,
///     so components may call them while holding their own locks;
///   * epoll holds no reference to a watched file, so an fd closed after
///     unwatch() returns is released at once (a listener stops listening,
///     a connection sends its FIN).
///
/// Timers live in a map ordered by (due, id): a timer is dispatched only
/// once its due time has passed (never early), and timers due in the same
/// wake go out in due order, ties in schedule order. Watches are oneshot:
/// a fired watch is disarmed before its callback is submitted and stays
/// silent until rearm(), so at most one callback task per watch is ever
/// in flight.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

namespace gns::exec {

class EventThread {
 public:
  using Clock = std::chrono::steady_clock;
  using TimerId = std::uint64_t;
  /// Hands a due callback to the executor (Executor::submit).
  using Submit = std::function<void(std::function<void()>)>;
  /// A ready watch's callback, submitted with the revents in poll() bits.
  using WatchFn = std::function<void(short)>;

  explicit EventThread(Submit submit);
  ~EventThread();

  EventThread(const EventThread&) = delete;
  EventThread& operator=(const EventThread&) = delete;

  TimerId schedule_at(Clock::time_point due, std::function<void()> fn);
  /// True iff the callback will never run (it had not been submitted).
  /// False when it already fired, was already cancelled, or is unknown.
  bool cancel_timer(TimerId id);

  /// Registers fd, armed for `events` (poll() bits). Returns a watch id
  /// (> 0), unique for the life of the thread. An fd epoll refuses (not
  /// open, a regular file, or already watched) fires at once with POLLNVAL.
  int watch(int fd, short events, WatchFn fn);
  /// Arms the watch for `events`. True iff it was disarmed, so its
  /// callback will run once more; an armed watch only takes the new mask.
  /// False for unknown ids.
  bool rearm(int id, short events);
  /// Unregisters the watch. True iff it was armed: its callback will never
  /// run. False when it fired (its task may still be queued or running)
  /// or is unknown. Call it before closing the fd: a closed fd's number
  /// may be reused by a new watch.
  bool unwatch(int id);

 private:
  struct Watch {
    int fd = -1;
    bool armed = false;
    WatchFn fn;
  };
  using Watches = std::unordered_map<int, Watch>;

  void loop();
  void wake();
  void arm(Watches::iterator it, int op, short events);
  /// Disarms the watch and submits its callback. Under m_.
  void fire(Watches::iterator it, short revents);

  Submit submit_;
  int wake_fds_[2] = {-1, -1};
  int epoll_fd_ = -1;

  std::mutex m_;  // guards everything below but the thread
  std::map<std::pair<Clock::time_point, TimerId>, std::function<void()>>
      timers_;
  std::unordered_map<TimerId, Clock::time_point> due_of_;
  Watches watches_;
  TimerId next_timer_ = 1;
  int next_watch_ = 1;
  bool stop_ = false;

  std::thread thread_;
};

}  // namespace gns::exec
