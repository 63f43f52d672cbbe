#pragma once

/// \file arena.hpp
/// Per-thread buffer pool ("tensor arena") for TensorImpl storage.
///
/// Steady-state rollouts create and destroy the same tensor shapes every
/// step. Without a pool, glibc serves the multi-megabyte edge-latent
/// buffers with mmap, so every step pays munmap plus fresh page faults.
/// Measured with getrusage on a 4-vCPU x86-64 VM, an unpooled Fig-3 step
/// (190 particles) takes ~1,950 minor page faults. With the pool, every
/// step after a rollout's first takes about 1. While a frame is marked by
/// an ArenaScope, destroyed tensors donate their storage vectors to a
/// thread-local free list keyed by power-of-two size class, and new op
/// results draw from that list in O(1) instead of allocating.
///
/// Contract (see DESIGN.md "Steady-state rollout memory model"):
///  * Pooling engages only while the current thread is inside at least one
///    ArenaScope. Outside a scope, acquire/recycle are plain
///    allocation/deallocation; that unpooled storage is the reference the
///    tests compare pooled runs against.
///  * Size classes: class c holds buffers of capacity [2^c, 2^(c+1)). An
///    acquire of n elements pops from class ceil(log2 n); a miss allocates
///    that class's full capacity 2^c, so once recycled the buffer files
///    into the same class the next same-size acquire pops from.
///  * A recycled buffer is only ever taken from a *destroyed* TensorImpl,
///    so pooled storage can never alias a live tensor.
///  * Buffers are zero-filled on acquire, exactly like a freshly resized
///    std::vector, so pooled results are bitwise identical to unpooled ones.
///  * The pool persists across frames (step N+1 reuses step N's buffers)
///    and is freed when the outermost ArenaLifetime on the thread exits.
///    One wraps each LearnedSimulator::rollout and train_gns call, so no
///    thread keeps pooled storage after the call that filled it.
///    arena_clear() frees a thread's pool outright.
///
/// The pool is bounded (per-class entry cap + total byte cap) so a shape
/// change cannot grow it without limit; over-cap buffers are simply freed.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gns::ad {

/// Always true: pooling inside an ArenaScope is the only production path.
/// Kept as a query so configuration stamps can report it.
[[nodiscard]] inline bool arena_enabled() { return true; }

/// RAII frame marker: pooling is active on this thread while at least one
/// ArenaScope is alive. Nestable; typically one scope wraps one simulator
/// step or one training step.
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
};

/// RAII bound on the calling thread's pool: when the outermost
/// ArenaLifetime on the thread exits, the pool is freed. Nestable, so a
/// rollout called inside a longer pooled call keeps the outer pool.
class ArenaLifetime {
 public:
  ArenaLifetime();
  ~ArenaLifetime();
  ArenaLifetime(const ArenaLifetime&) = delete;
  ArenaLifetime& operator=(const ArenaLifetime&) = delete;
};

/// Counters of the calling thread's pool (cumulative since thread start).
struct ArenaStats {
  std::uint64_t hits = 0;      ///< acquires served from the pool
  std::uint64_t misses = 0;    ///< acquires that had to allocate
  std::uint64_t recycled = 0;  ///< buffers parked for reuse
  std::size_t bytes_pooled = 0;  ///< bytes currently parked in the pool
};
[[nodiscard]] ArenaStats arena_thread_stats();

/// Frees every buffer in the calling thread's pool.
void arena_clear();

namespace arena {

/// Leaves `out` sized to `n` elements, all zero — from the pool when the
/// arena is active on this thread, freshly allocated otherwise. Exactly
/// equivalent to `out = std::vector<double>(n)`.
void acquire(std::vector<double>& out, std::size_t n);

/// Same, but filled with `value` instead of zero.
void acquire_fill(std::vector<double>& out, std::size_t n, double value);

/// Parks `v`'s storage for reuse when the arena is active on this thread
/// (and the pool has room); otherwise lets it free normally. Called by
/// ~TensorImpl for the data and grad buffers.
void recycle(std::vector<double>& v) noexcept;

}  // namespace arena

}  // namespace gns::ad
