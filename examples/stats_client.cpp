// gns_stats: scrape a live serve_rollouts --listen server.
//
// Sends a kStatsRequest over the wire protocol and prints the health
// header (uptime, in-flight, queue depth, connections, drain state)
// followed by the full metrics snapshot — Prometheus text exposition by
// default, the registry's JSON dump with --json. The server answers in the
// connection's own service task without queueing behind rollouts, so
// scraping a loaded server is safe at any frequency.
//
// Usage: gns_stats <host> <port> [--json] [--probe N] [--steps S]
//
// --probe N first sends N traced rollout requests (against the 'columns'
// demo model that serve_rollouts serves) and prints each one's trace id
// and per-phase latency breakdown, so a fresh server has something in its
// serve.phase.* histograms before the scrape — and so the printed trace
// ids can be grepped in the server's GNS_TRACE_FILE dump and slow-request
// log. --steps sets the probe rollout length (default 8).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/datagen.hpp"
#include "net/net.hpp"

using namespace gns;

namespace {

/// Builds a rollout request for the serve_rollouts demo checkpoint: same
/// scene family (24x12-cell column collapse) and the same 5-frame window
/// (history 4 + current) that checkpoint was trained with.
serve::RolloutRequest make_probe_request(int steps) {
  mpm::GranularSceneParams scene;
  scene.cells_x = 24;
  scene.cells_y = 12;
  scene.domain_width = 1.0;
  scene.domain_height = 0.5;
  io::Dataset probe = core::generate_column_dataset(
      scene, {30.0}, 0.15, 1.5, /*frames=*/10, /*substeps=*/10);
  const io::Trajectory& traj = probe.trajectories[0];

  serve::RolloutRequest request;
  request.model = "columns";
  request.steps = steps;
  request.material = traj.material_param;
  constexpr int kWindow = 5;
  for (int t = 0; t < kWindow; ++t)
    request.window.push_back(traj.frames[static_cast<std::size_t>(t)]);
  return request;
}

// All probe output goes to stderr: stdout is reserved for the scrape
// body so `gns_stats host port --probe N > metrics.prom` stays a valid
// Prometheus exposition file.
int run_probes(net::Client& client, int probes, int steps) {
  std::fprintf(stderr,
               "[probe] building a %d-step column-collapse request...\n",
               steps);
  const serve::RolloutRequest request = make_probe_request(steps);
  int failed = 0;
  for (int i = 0; i < probes; ++i) {
    const net::ClientResult result = client.rollout(request);
    if (!result.transport_ok) {
      std::fprintf(stderr, "[probe] transport error: %s\n",
                   result.transport_error.c_str());
      ++failed;
      continue;
    }
    if (!result.ok()) {
      std::fprintf(stderr, "[probe] rollout failed: %s\n",
                   result.error.c_str());
      ++failed;
      continue;
    }
    std::fprintf(
        stderr,
        "[probe] trace 0x%016llx  %s  rtt %.2f ms  server %.2f ms  "
        "(decode %.0f  cache %.0f  queue %.0f  batch_wait %.0f  "
        "compute %.0f  serialize %.0f us)\n",
        static_cast<unsigned long long>(result.trace_id),
        to_string(result.cache_outcome), result.rtt_ms, result.total_ms,
        result.phases.decode_us, result.phases.cache_us,
        result.phases.queue_us, result.phases.batch_wait_us,
        result.phases.compute_us, result.phases.serialize_us);
  }
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host;
  int port = 0;
  bool json = false;
  int probes = 0;
  int steps = 8;

  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--probe") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--probe requires a count\n");
        return 2;
      }
      probes = std::atoi(argv[++i]);
    } else if (arg == "--steps") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--steps requires a count\n");
        return 2;
      }
      steps = std::atoi(argv[++i]);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: gns_stats <host> <port> [--json] [--probe N] "
                 "[--steps S]\n");
    return 2;
  }
  host = positional[0];
  port = std::atoi(positional[1].c_str());
  if (port <= 0) {
    std::fprintf(stderr, "bad port '%s'\n", positional[1].c_str());
    return 2;
  }

  net::ClientConfig config;
  config.host = host;
  config.port = port;
  net::Client client(config);

  int probe_failures = 0;
  if (probes > 0) probe_failures = run_probes(client, probes, steps);

  const net::Client::StatsResult stats = client.stats(
      json ? net::WireStatsRequest::kJson
           : net::WireStatsRequest::kPrometheus);
  if (!stats.transport_ok) {
    std::fprintf(stderr, "stats scrape failed: %s\n",
                 stats.transport_error.c_str());
    return 1;
  }
  if (stats.is_net_error) {
    std::fprintf(stderr, "server rejected the scrape: %s (%s)\n",
                 to_string(stats.net_error), stats.error.c_str());
    return 1;
  }

  std::fprintf(stderr,
               "# server %s:%d  uptime %.1f s  inflight %u  queue %u  "
               "connections %u  draining %u  (scrape rtt %.2f ms)\n",
               host.c_str(), port, stats.reply.uptime_ms / 1000.0,
               stats.reply.inflight, stats.reply.queue_depth,
               stats.reply.active_connections, stats.reply.draining,
               stats.rtt_ms);
  std::fwrite(stats.reply.body.data(), 1, stats.reply.body.size(), stdout);
  if (!stats.reply.body.empty() && stats.reply.body.back() != '\n')
    std::printf("\n");

  return probe_failures == 0 ? 0 : 1;
}
