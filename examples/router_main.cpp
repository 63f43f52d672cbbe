// Fleet front door: one process that load-balances rollout requests
// across N `serve_rollouts --listen` backends (src/router).
//
// Clients keep speaking the exact same wire protocol they use against a
// single server — point them at the router's port and nothing else
// changes. The router learns everything over the wire (HELLO capability
// handshake: models served, protocol version, capacity), places each
// request on the least-loaded capable backend, health-checks the fleet,
// fails over when a backend dies before its first reply chunk, and
// aggregates fleet capability so `gns_stats` scrapes and HELLOs work
// against the router itself.
//
// Usage:
//   gns_router --listen <port> --backend host:port [--backend host:port ...]
//              [--probe-interval-ms N] [--max-attempts N]
//
// A bare "port" backend spec means 127.0.0.1. GNS_LISTEN_HOST overrides
// the bind address (127.0.0.1 default). SIGINT/SIGTERM drains gracefully:
// new requests get typed ShuttingDown, in-flight proxied streams finish,
// then the process exits and prints the final fleet snapshot.
//
// A three-backend fleet on one machine:
//   serve_rollouts --listen 7001 & serve_rollouts --listen 7002 &
//   serve_rollouts --listen 7003 &
//   gns_router --listen 7000 --backend :7001 --backend :7002 --backend :7003
//   gns_stats 7000            # scrapes the ROUTER's metrics + health

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "router/router.hpp"

using namespace gns;

namespace {

std::atomic<int> g_signal{0};
void on_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

const char* health_name(router::BackendHealth health) {
  switch (health) {
    case router::BackendHealth::Healthy: return "healthy";
    case router::BackendHealth::Evicted: return "evicted";
    case router::BackendHealth::Unknown: break;
  }
  return "unknown";
}

void print_fleet(const router::Router& r) {
  for (const router::BackendSnapshot& b : r.snapshot()) {
    std::string models;
    for (const std::string& m : b.capabilities.models) {
      if (!models.empty()) models += ",";
      models += m;
    }
    std::printf("  %s:%d  %-8s inflight %d/%d  models [%s]\n",
                b.address.host.c_str(), b.address.port,
                health_name(b.health), b.inflight, b.capabilities.capacity,
                models.empty() ? "?" : models.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: gns_router --listen <port> --backend host:port "
               "[--backend host:port ...]\n"
               "                  [--probe-interval-ms N] "
               "[--max-attempts N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  obs::install_from_env();

  router::RouterConfig config;
  config.port = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--listen" && has_value) {
      config.port = std::atoi(argv[++i]);
    } else if (arg == "--backend" && has_value) {
      router::BackendAddress address;
      if (!router::parse_backend_address(argv[++i], address)) {
        std::fprintf(stderr, "malformed backend spec '%s'\n", argv[i]);
        return 2;
      }
      config.backends.push_back(address);
    } else if (arg == "--probe-interval-ms" && has_value) {
      config.probe_interval_ms = std::atof(argv[++i]);
    } else if (arg == "--max-attempts" && has_value) {
      config.max_attempts = std::atoi(argv[++i]);
    } else {
      return usage();
    }
  }
  if (config.port < 0 || config.backends.empty()) return usage();
  if (const char* host = std::getenv("GNS_LISTEN_HOST")) config.host = host;

  router::Router router(config);
  if (!router.start()) {
    std::fprintf(stderr, "failed to bind %s:%d\n", config.host.c_str(),
                 config.port);
    return 1;
  }
  std::printf("[router] listening on %s:%d, %zu backends:\n",
              config.host.c_str(), router.port(), config.backends.size());
  print_fleet(router);
  std::printf("[router] Ctrl-C (SIGINT) or SIGTERM drains and exits\n");

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_signal.load(std::memory_order_relaxed) == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::printf("[router] signal %d: draining...\n",
              g_signal.load(std::memory_order_relaxed));
  // Fleet drain order: router FIRST (this), backends after it exits —
  // draining backends while the router still proxies would drop work.
  router.stop();
  std::printf("[router] drained; final fleet state:\n");
  print_fleet(router);
  return 0;
}
