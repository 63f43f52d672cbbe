#pragma once

/// \file steal_deque.hpp
/// Chase-Lev work-stealing deque over raw pointers.
///
/// One owner thread pushes and pops at the bottom; any number of thieves
/// steal from the top. The memory orderings follow the corrected
/// weak-memory-model formulation of Le, Pop, Cohen & Nardelli (PPoPP'13):
/// the owner's pop publishes its speculative bottom decrement with a
/// seq_cst fence before reading top, and both the owner (on the
/// last-element race) and thieves resolve contention with a seq_cst CAS
/// on top. Every owner store to bottom is a release store (the paper's
/// release fence folded into it; the same instruction on x86), so a
/// thief's acquire load of bottom synchronizes with whichever store it
/// reads and sees the items below it — an edge ThreadSanitizer can see,
/// which it cannot for a standalone fence.
///
/// The ring is fixed capacity (power of two). push_bottom returns false
/// when full instead of growing, so the array pointer never changes and
/// thieves can read it without indirection or reclamation machinery;
/// callers overflow into the executor's mutex-protected injection queue.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gns::exec {

template <typename T>
class StealDeque {
 public:
  explicit StealDeque(std::size_t capacity = 1024)
      : mask_(capacity - 1), ring_(capacity) {}

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  /// Owner only. False when the ring is full.
  bool push_bottom(T* item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(ring_.size())) return false;
    ring_[static_cast<std::size_t>(b) & mask_].store(
        item, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  /// Owner only. Null when empty (or when the last element was lost to a
  /// concurrent thief).
  T* pop_bottom() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {  // already empty: undo the speculative decrement
      bottom_.store(b + 1, std::memory_order_release);
      return nullptr;
    }
    T* item =
        ring_[static_cast<std::size_t>(b) & mask_].load(std::memory_order_relaxed);
    if (t == b) {
      // Single element left: race thieves for it via top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed))
        item = nullptr;  // a thief won
      bottom_.store(b + 1, std::memory_order_release);
    }
    return item;
  }

  /// Thieves. Null when empty or when the CAS lost a race (caller retries
  /// elsewhere; this is not a failure).
  T* steal_top() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    T* item =
        ring_[static_cast<std::size_t>(t) & mask_].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return nullptr;
    return item;
  }

  /// Racy size hint for wake/park heuristics only.
  bool empty_hint() const {
    return bottom_.load(std::memory_order_relaxed) <=
           top_.load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::size_t mask_;
  std::vector<std::atomic<T*>> ring_;
};

}  // namespace gns::exec
