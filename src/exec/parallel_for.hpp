#pragma once

/// \file parallel_for.hpp
/// Executor-backed data parallelism with a worker-count-independent
/// decomposition: the program's only parallel-loop primitive (ad ops, MPM
/// transfers, neighbor search, CFD sweeps, SR fitness).
///
/// Determinism contract: the loop is split into a fixed number of chunks
/// that depends ONLY on the trip count (never on the worker count), with
/// static `n*c/k` chunk bounds. Workers claim chunks dynamically, so
/// *which thread* runs a chunk varies run to run — callers must only use
/// parallel_for on loops whose iterations write disjoint outputs (loops
/// that accumulate use parallel_jobs with per-lane buffers and a fixed
/// serial reduction order instead). Under that contract results are
/// bitwise identical at any GNS_EXEC_WORKERS.
///
/// The caller participates: it claims chunks alongside submitted helper
/// tasks and returns when every chunk has finished. Completion is counted
/// per chunk, not per helper, so all chunks complete even if no helper
/// ever runs (e.g. all workers busy) — the caller just does the whole
/// loop itself. Nested calls (a body invoking another parallel loop) run
/// serially on the calling thread.

#include <atomic>
#include <cstdint>
#include <memory>

#include "exec/executor.hpp"

namespace gns::exec {

namespace detail {

/// Depth of parallel loops on this thread; >0 forces nested calls serial.
/// Holding a ScopedParallelDepth therefore runs every parallel_for and
/// parallel_jobs on the caller, which tests use as the serial reference.
inline thread_local int t_parallel_depth = 0;

struct ScopedParallelDepth {
  ScopedParallelDepth() { ++t_parallel_depth; }
  ~ScopedParallelDepth() { --t_parallel_depth; }
};

struct ChunkState {
  std::atomic<int> next{0};
  std::atomic<int> done{0};
};

/// Runs body(job) for job in [0, njobs) across the global executor; the
/// calling thread participates and the function returns once all jobs
/// finished. Body must not block on other executor tasks.
template <typename Body>
void run_jobs(int njobs, Body& body) {
  Executor& ex = Executor::global();
  auto state = std::make_shared<ChunkState>();
  Body* pbody = &body;
  auto drain = [state, njobs, pbody]() {
    ScopedParallelDepth depth_guard;
    for (;;) {
      const int job = state->next.fetch_add(1, std::memory_order_relaxed);
      if (job >= njobs) break;
      (*pbody)(job);
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == njobs)
        state->done.notify_all();
    }
  };
  int helpers = ex.workers() < njobs ? ex.workers() : njobs;
  if (ex.on_worker_thread()) --helpers;
  for (int h = 0; h < helpers; ++h) ex.submit(drain);
  drain();
  // All chunks are claimed; wait for stragglers running on other workers.
  // Brief spin first: the tail is typically one partially-done chunk.
  int done = state->done.load(std::memory_order_acquire);
  for (int spin = 0; done != njobs && spin < 1024; ++spin)
    done = state->done.load(std::memory_order_acquire);
  while (done != njobs) {
    state->done.wait(done, std::memory_order_acquire);
    done = state->done.load(std::memory_order_acquire);
  }
}

}  // namespace detail

/// Fixed chunk count for parallel_for: enough slack for 16 workers to
/// balance, cheap enough (one relaxed fetch_add per chunk) for small
/// loops. Part of the bitwise contract only insofar as it is a constant —
/// iterations are independent, so any decomposition yields identical
/// results; what matters is that it never depends on the worker count.
inline constexpr int kForChunks = 32;

/// Runs body(i) for i in [0, n), in parallel when `worthwhile` (else
/// serially on the caller). Iterations must write disjoint outputs (see
/// file comment).
template <typename Body>
void parallel_for(std::int64_t n, bool worthwhile, Body&& body) {
  if (n <= 0) return;
  if (!worthwhile || n < 2 || detail::t_parallel_depth > 0) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  const int nchunks =
      n < static_cast<std::int64_t>(kForChunks) ? static_cast<int>(n)
                                                : kForChunks;
  auto chunk_body = [&body, n, nchunks](int c) {
    const std::int64_t begin = n * c / nchunks;
    const std::int64_t end = n * (c + 1) / nchunks;
    for (std::int64_t i = begin; i < end; ++i) body(i);
  };
  detail::run_jobs(nchunks, chunk_body);
}

/// Runs body(job) for job in [0, njobs) in parallel, where the caller has
/// already fixed the job decomposition (e.g. MPM p2g lanes, each owning a
/// contiguous chunk range and a private accumulation buffer). njobs must
/// be a function of problem size only. Which worker runs a job is
/// scheduling-dependent; the work inside each job is not.
template <typename Body>
void parallel_jobs(int njobs, bool worthwhile, Body&& body) {
  if (njobs <= 0) return;
  if (!worthwhile || njobs == 1 || detail::t_parallel_depth > 0) {
    for (int j = 0; j < njobs; ++j) body(j);
    return;
  }
  detail::run_jobs(njobs, body);
}

}  // namespace gns::exec
