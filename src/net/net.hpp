#pragma once

/// \file net.hpp
/// Umbrella header of the network serving front-end.
///
/// The subsystem puts the in-process serving stack (serve::ModelRegistry +
/// serve::JobScheduler) behind a TCP socket:
///
///   protocol — length-prefixed binary frames ("GNS1" magic, versioned),
///              strict bounds-checked decoding, typed transport errors;
///   Server   — nonblocking sockets serviced as executor tasks (no
///              threads of its own), bounded in-flight caps (Busy
///              backpressure), deadline propagation, graceful drain on
///              stop();
///   Client   — blocking request/stream-response with Busy retry/backoff,
///              automatic trace-id generation, and a stats() scrape.
///
/// Protocol v2 adds end-to-end observability: requests carry a 64-bit
/// trace_id that is stamped on every span of their server-side life,
/// status replies carry a per-phase latency breakdown (decode / cache /
/// queue / batch-wait / compute / serialize), and kStatsRequest frames
/// snapshot the metrics registry + server health (Prometheus or JSON)
/// without queueing behind rollouts. v1 clients interoperate unchanged.
///
/// See examples/serve_rollouts.cpp --listen for a server driver,
/// examples/stats_client.cpp for a scrape tool,
/// bench/bench_net_throughput.cpp for the load generator, and DESIGN.md §8
/// (wire format) / §10 (request observability).

#include "net/client.hpp"    // IWYU pragma: export
#include "net/protocol.hpp"  // IWYU pragma: export
#include "net/server.hpp"    // IWYU pragma: export
