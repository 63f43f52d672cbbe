#pragma once

/// \file serve.hpp
/// Umbrella header of the rollout serving subsystem.
///
/// The subsystem turns trained LearnedSimulator checkpoints into an
/// in-process inference service:
///
///   ModelRegistry — named, hot-reloadable cache of loaded checkpoints
///                   (shared-ownership handles keep in-flight rollouts on
///                   the weights they started with);
///   JobScheduler  — fixed worker pool + bounded FIFO queue executing
///                   RolloutRequest jobs into RolloutResult futures, with
///                   per-job deadline/cancellation and typed queue-full
///                   rejection;
///   ServerStats   — throughput, queue depth, and p50/p95/p99 latency
///                   histograms, dumpable as CSV/JSON for
///                   scripts/plot_results.py;
///   RolloutService — the calls net::Server makes; JobScheduler has them.
///
/// See examples/serve_rollouts.cpp for an end-to-end driver and
/// bench/bench_serve_throughput.cpp for worker-scaling measurements.

#include "serve/cache_key.hpp"  // IWYU pragma: export
#include "serve/job.hpp"        // IWYU pragma: export
#include "serve/registry.hpp"   // IWYU pragma: export
#include "serve/scheduler.hpp"  // IWYU pragma: export
#include "serve/service.hpp"    // IWYU pragma: export
#include "serve/stats.hpp"      // IWYU pragma: export
