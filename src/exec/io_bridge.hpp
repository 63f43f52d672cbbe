#pragma once

/// \file io_bridge.hpp
/// Per-owner handle on the executor's fd watches: readiness events on
/// registered fds become executor tasks.
///
/// The bridge owns no thread. Its watches live on the executor's one
/// EventThread, which waits on them together with every timer. When a
/// watch fires it is disarmed (oneshot) and its callback is submitted to
/// the executor with the revents mask; the callback re-arms via rearm()
/// when it wants more events. Oneshot semantics guarantee at most one
/// in-flight callback task per watch, so per-connection state needs no
/// locking against the bridge itself (only against timers the owner
/// schedules separately).
///
/// The bridge counts the callback tasks it has submitted. stop()
/// unregisters every watch, then waits for that count to drain, after
/// which the owner may destroy the bridge. Once stop() has begun, watch()
/// registers nothing: a watch added by a late task would otherwise fire
/// into a destroyed owner. rearm()/unwatch() on a stopped bridge are
/// harmless no-ops.

#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_set>

namespace gns::exec {

class Executor;

class IoBridge {
 public:
  /// revents: the poll() revents mask (POLLIN/POLLOUT/POLLERR/POLLHUP/
  /// POLLNVAL). A watch on an fd the kernel cannot watch (not open, or a
  /// regular file) fires with POLLNVAL.
  using Callback = std::function<void(short)>;

  explicit IoBridge(Executor& executor);
  ~IoBridge();

  IoBridge(const IoBridge&) = delete;
  IoBridge& operator=(const IoBridge&) = delete;

  /// Registers fd, armed for `events`. Returns a watch id (> 0), or -1
  /// when stop() has begun and nothing was registered.
  int watch(int fd, short events, Callback cb);

  /// Re-arms a (disarmed) watch for `events`. Typically called at the end
  /// of the callback task.
  void rearm(int id, short events);

  /// Unregisters the watch; its callback will not be submitted again
  /// (an already-submitted callback task may still be running). Call it
  /// before closing the fd; once it returns, nothing holds the fd, so a
  /// close releases the socket at once.
  void unwatch(int id);

  /// Unregisters every watch and waits for in-flight callback tasks to
  /// drain. Idempotent.
  void stop();

 private:
  Executor& executor_;
  std::mutex m_;
  std::unordered_set<int> ids_;  // live watches; guarded by m_
  bool stopped_ = false;         // guarded by m_
  std::atomic<int> inflight_{0};  // callbacks submitted, not yet finished
};

}  // namespace gns::exec
