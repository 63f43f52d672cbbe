#include "exec/io_bridge.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "exec/executor.hpp"

namespace gns::exec {

IoBridge::IoBridge(Executor& executor) : executor_(executor) {}

IoBridge::~IoBridge() { stop(); }

int IoBridge::watch(int fd, short events, Callback cb) {
  std::lock_guard<std::mutex> lk(m_);
  if (stopped_) return -1;
  // The dispatch runs on the event thread under its lock, so the count
  // rises before unwatch() can return: stop() never misses a callback.
  const int id = executor_.events_.watch(
      fd, events, [this, cb = std::move(cb)](short revents) {
        inflight_.fetch_add(1, std::memory_order_acq_rel);
        executor_.submit([this, cb, revents] {
          cb(revents);
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
        });
      });
  ids_.insert(id);
  return id;
}

void IoBridge::rearm(int id, short events) {
  executor_.events_.rearm(id, events);
}

void IoBridge::unwatch(int id) {
  // Under m_, so a concurrent stop() either unwatches this id itself or
  // finds it already gone.
  std::lock_guard<std::mutex> lk(m_);
  ids_.erase(id);
  executor_.events_.unwatch(id);
}

void IoBridge::stop() {
  std::unordered_set<int> ids;
  {
    std::lock_guard<std::mutex> lk(m_);
    stopped_ = true;
    ids.swap(ids_);
  }
  for (const int id : ids) executor_.events_.unwatch(id);
  // Callback tasks already submitted may still be queued or running.
  while (inflight_.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

}  // namespace gns::exec
