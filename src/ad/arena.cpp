#include "ad/arena.hpp"

#include <array>

#include "obs/metrics.hpp"

namespace gns::ad {

namespace {

// Size classes are powers of two of the element count: class c holds
// vectors with capacity in [2^c, 2^(c+1)). An acquire for n elements pops
// from the ceil class, whose every entry has capacity >= n.
constexpr int kNumClasses = 40;
constexpr std::size_t kMaxEntriesPerClass = 16;
constexpr std::size_t kMaxPoolBytes = std::size_t(512) << 20;  // per thread

// Trivially-destructible liveness flag: set while the thread's pool object
// exists. TensorImpls destroyed during thread teardown (after the pool's
// thread_local destructor ran) must not touch the pool; the bool itself is
// never destroyed, so checking it is always safe.
thread_local bool t_pool_alive = false;

struct ThreadPool {
  std::array<std::vector<std::vector<double>>, kNumClasses> classes;
  int depth = 0;      ///< ArenaScope nesting on this thread
  int lifetimes = 0;  ///< ArenaLifetime nesting on this thread
  ArenaStats stats;
  // Deltas since the last metrics flush (frame end).
  std::uint64_t flushed_hits = 0;
  std::uint64_t flushed_misses = 0;

  ThreadPool() { t_pool_alive = true; }
  ~ThreadPool() { t_pool_alive = false; }
};

/// The calling thread's pool; constructed on first use (the first
/// ArenaScope or ArenaLifetime on the thread).
ThreadPool& pool() {
  thread_local ThreadPool t_pool;
  return t_pool;
}

int floor_class(std::size_t n) {
  int c = 0;
  while ((std::size_t(1) << (c + 1)) <= n && c + 1 < kNumClasses) ++c;
  return c;
}

int ceil_class(std::size_t n) {
  const int c = floor_class(n);
  return ((std::size_t(1) << c) == n) ? c : c + 1;
}

/// Pops a pooled vector from class c (capacity >= 2^c), or returns false.
bool pop(ThreadPool& p, int c, std::vector<double>& out) {
  if (c >= kNumClasses) return false;
  auto& entries = p.classes[c];
  if (entries.empty()) return false;
  out = std::move(entries.back());
  entries.pop_back();
  p.stats.bytes_pooled -= out.capacity() * sizeof(double);
  return true;
}

void flush_metrics(ThreadPool& p) {
  static auto& hit =
      obs::MetricsRegistry::global().counter("ad.arena.hit");
  static auto& miss =
      obs::MetricsRegistry::global().counter("ad.arena.miss");
  static auto& bytes_live =
      obs::MetricsRegistry::global().gauge("ad.arena.bytes_live");
  hit.add(p.stats.hits - p.flushed_hits);
  miss.add(p.stats.misses - p.flushed_misses);
  p.flushed_hits = p.stats.hits;
  p.flushed_misses = p.stats.misses;
  bytes_live.set(static_cast<double>(p.stats.bytes_pooled));
}

}  // namespace

ArenaScope::ArenaScope() { ++pool().depth; }

ArenaScope::~ArenaScope() {
  ThreadPool& p = pool();
  if (--p.depth == 0) flush_metrics(p);
}

ArenaLifetime::ArenaLifetime() { ++pool().lifetimes; }

ArenaLifetime::~ArenaLifetime() {
  if (--pool().lifetimes == 0) arena_clear();
}

ArenaStats arena_thread_stats() { return pool().stats; }

void arena_clear() {
  ThreadPool& p = pool();
  for (auto& entries : p.classes) {
    entries.clear();
    entries.shrink_to_fit();
  }
  p.stats.bytes_pooled = 0;
  flush_metrics(p);
}

namespace arena {

void acquire(std::vector<double>& out, std::size_t n) {
  acquire_fill(out, n, 0.0);
}

void acquire_fill(std::vector<double>& out, std::size_t n, double value) {
  if (t_pool_alive) {
    ThreadPool& p = pool();
    if (p.depth > 0) {
      const int c = ceil_class(n);
      if (pop(p, c, out)) {
        ++p.stats.hits;
      } else {
        ++p.stats.misses;
        // Allocate the class capacity, not n: recycled, the buffer then
        // files under class c, where the next same-size acquire pops.
        if (c < kNumClasses) out.reserve(std::size_t(1) << c);
      }
    }
  }
  out.assign(n, value);
}

void recycle(std::vector<double>& v) noexcept {
  if (v.capacity() == 0 || !t_pool_alive) return;
  ThreadPool& p = pool();
  if (p.depth == 0) return;
  const std::size_t bytes = v.capacity() * sizeof(double);
  const int c = floor_class(v.capacity());
  auto& entries = p.classes[c];
  if (entries.size() >= kMaxEntriesPerClass ||
      p.stats.bytes_pooled + bytes > kMaxPoolBytes) {
    return;  // over cap: let it free normally
  }
  entries.push_back(std::move(v));
  p.stats.bytes_pooled += bytes;
  ++p.stats.recycled;
}

}  // namespace arena

}  // namespace gns::ad
