// Router fleet E2E over loopback, driven by the net_fault proxy: placement
// spreads by in-flight load and respects HELLO-advertised models, a backend
// killed before its first chunk fails over transparently (bitwise-identical
// stream), one killed after streaming surfaces a typed BackendLost, slow
// backends are evicted and re-admitted, a full fleet surfaces Busy, drain
// loses zero accepted jobs, and finished client sessions release their
// threads.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "net/net.hpp"
#include "net_fault.hpp"
#include "obs/obs.hpp"
#include "router/router.hpp"
#include "serve/serve.hpp"

namespace gns::router {
namespace {

using core::FeatureConfig;
using core::GnsConfig;
using core::LearnedSimulator;
using core::SceneContext;
using net_fault::FaultAction;
using net_fault::FaultProxy;
using net_fault::FaultScript;

io::Dataset small_dataset() {
  io::Dataset ds;
  io::Trajectory traj;
  traj.dim = 2;
  traj.num_particles = 6;
  traj.domain_lo = {0.0, 0.0};
  traj.domain_hi = {1.0, 1.0};
  traj.material_param = 0.6;
  Rng rng(7);
  std::vector<double> base(12);
  for (auto& v : base) v = rng.uniform(0.3, 0.7);
  for (int t = 0; t < 12; ++t) {
    std::vector<double> frame(12);
    for (int i = 0; i < 12; ++i) frame[i] = base[i] + 0.002 * t * (i % 3);
    traj.add_frame(std::move(frame));
  }
  ds.trajectories.push_back(std::move(traj));
  return ds;
}

LearnedSimulator make_small_sim() {
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.4;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 1.0};
  fc.material_feature = true;
  GnsConfig gc;
  gc.latent = 8;
  gc.mlp_hidden = 8;
  gc.mlp_layers = 1;
  gc.message_passing_steps = 2;
  return core::make_simulator(small_dataset(), fc, gc, /*seed=*/42);
}

serve::RolloutRequest small_request(const LearnedSimulator& sim, int steps,
                                    const std::string& model = "m") {
  io::Dataset ds = small_dataset();
  const io::Trajectory& traj = ds.trajectories[0];
  serve::RolloutRequest req;
  req.model = model;
  req.steps = steps;
  req.material = traj.material_param;
  const int w = sim.features().window_size();
  for (int t = 0; t < w; ++t) req.window.push_back(traj.frames[t]);
  return req;
}

std::vector<std::vector<double>> direct_rollout(const LearnedSimulator& sim,
                                                int steps) {
  io::Dataset ds = small_dataset();
  SceneContext ctx;
  ctx.material = ad::Tensor::scalar(ds.trajectories[0].material_param);
  return sim.rollout(sim.window_from_trajectory(ds.trajectories[0]), steps,
                     ctx);
}

void expect_bitwise_equal(const std::vector<std::vector<double>>& got,
                          const std::vector<std::vector<double>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(got[t].size(), want[t].size());
    for (std::size_t k = 0; k < want[t].size(); ++k) {
      // Bitwise, not approximate: failover must hand the client the exact
      // stream a direct single-server rollout produces.
      ASSERT_EQ(got[t][k], want[t][k]) << "frame " << t << " component " << k;
    }
  }
}

serve::SchedulerConfig sched_cfg(int workers, int queue_capacity) {
  serve::SchedulerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_capacity;
  return cfg;
}

/// One backend server; `models` names the registry entries (every entry is
/// the same deterministic seed-42 simulator, so any backend's answer is
/// bitwise-comparable).
struct BackendHarness {
  explicit BackendHarness(net::ServerConfig cfg,
                          std::vector<std::string> models = {"m"},
                          serve::SchedulerConfig sched = sched_cfg(2, 32)) {
    registry = std::make_shared<serve::ModelRegistry>();
    for (const std::string& name : models) registry->put(name, make_small_sim());
    sim = registry->get(models.front());
    sched.stats_prefix = cfg.metrics_prefix + "_sched";
    scheduler = std::make_unique<serve::JobScheduler>(registry, sched);
    server = std::make_unique<net::Server>(*scheduler, std::move(cfg));
  }

  [[nodiscard]] bool start() { return server->start(); }

  std::shared_ptr<serve::ModelRegistry> registry;
  serve::ModelRegistry::Handle sim;
  std::unique_ptr<serve::JobScheduler> scheduler;
  std::unique_ptr<net::Server> server;
};

net::ServerConfig backend_cfg(const std::string& prefix) {
  net::ServerConfig cfg;
  cfg.metrics_prefix = prefix;
  return cfg;
}

RouterConfig router_cfg(const std::string& prefix, std::vector<int> ports) {
  RouterConfig cfg;
  cfg.metrics_prefix = prefix;
  // Probes stay out of the way unless a test opts in: the requests
  // themselves exercise eviction deterministically.
  cfg.probe_interval_ms = 3600 * 1000.0;
  for (int port : ports) cfg.backends.push_back({"127.0.0.1", port});
  return cfg;
}

net::ClientConfig client_cfg(const Router& router) {
  net::ClientConfig cfg;
  cfg.port = router.port();
  return cfg;
}

double counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Polls `pred` until true or ~5s; returns its final value.
bool eventually(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// ---- Raw-socket helper for HELLO (net::Client has no hello call) -----------

int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool raw_hello(int port, net::WireHelloReply& reply) {
  const int fd = raw_connect(port);
  const auto wire = net::encode_hello(1, net::WireHello{});
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  std::vector<std::uint8_t> buf;
  net::FrameView frame;
  for (;;) {
    net::DecodeError decode_error;
    if (net::try_decode_frame(buf.data(), buf.size(), frame, decode_error) ==
        net::DecodeStatus::Ok)
      break;
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    buf.insert(buf.end(), chunk, chunk + n);
  }
  ::close(fd);
  std::string parse_error;
  return frame.type == net::MessageType::HelloReply &&
         net::decode_hello_reply(frame, reply, parse_error);
}

// ---- Tests -----------------------------------------------------------------

TEST(RouterFleet, SpreadsLoadAndAggregatesHello) {
  BackendHarness a(backend_cfg("rt1a"));
  BackendHarness b(backend_cfg("rt1b"));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  Router router(router_cfg("rt1", {a.server->port(), b.server->port()}));
  ASSERT_TRUE(router.start());
  const auto want = direct_rollout(*a.sim, 5);

  // Pin both schedulers so two concurrent requests MUST spread: the first
  // occupies one backend's in-flight slot, least-in-flight places the
  // second on the sibling.
  a.scheduler->pause();
  b.scheduler->pause();
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      net::Client client(client_cfg(router));
      const net::ClientResult r = client.rollout(small_request(*a.sim, 5));
      if (r.ok() && r.frames == want) ++ok_count;
    });
  }
  ASSERT_TRUE(eventually([&] {
    return a.scheduler->queue_depth() >= 1 && b.scheduler->queue_depth() >= 1;
  })) << "load did not spread across both backends";
  a.scheduler->resume();
  b.scheduler->resume();
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), 2);

  // HELLO answered on behalf of the fleet: union of models, summed
  // capacity, current protocol.
  net::WireHelloReply hello;
  ASSERT_TRUE(raw_hello(router.port(), hello));
  EXPECT_EQ(hello.protocol_version, net::kProtocolVersion);
  ASSERT_EQ(hello.models.size(), 1u);
  EXPECT_EQ(hello.models[0], "m");
  EXPECT_EQ(hello.max_inflight, 128u);  // two backends, 64 slots each
  EXPECT_EQ(hello.draining, 0u);

  router.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, PlacementRespectsAdvertisedModels) {
  BackendHarness a(backend_cfg("rt2a"), {"m"});
  BackendHarness b(backend_cfg("rt2b"), {"m2"});
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  Router router(router_cfg("rt2", {a.server->port(), b.server->port()}));
  ASSERT_TRUE(router.start());
  const auto want = direct_rollout(*a.sim, 4);

  // "m2" lives only on backend b, which is NOT first in config order: only
  // capability-aware placement can serve this.
  net::Client client(client_cfg(router));
  const net::ClientResult r =
      client.rollout(small_request(*a.sim, 4, "m2"));
  ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
  expect_bitwise_equal(r.frames, want);
  EXPECT_EQ(b.scheduler->stats().snapshot().completed, 1u);
  EXPECT_EQ(a.scheduler->stats().snapshot().completed, 0u);

  // A model nobody advertises mirrors the direct-server answer: a typed
  // ModelNotFound job status, not a transport error.
  const net::ClientResult missing =
      client.rollout(small_request(*a.sim, 4, "no_such_model"));
  ASSERT_TRUE(missing.transport_ok) << missing.transport_error;
  EXPECT_FALSE(missing.is_net_error);
  EXPECT_EQ(missing.status, serve::JobStatus::ModelNotFound);

  router.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, BackendDeathPreFirstChunkFailsOverBitwiseIdentical) {
  BackendHarness a(backend_cfg("rt3a"));
  BackendHarness b(backend_cfg("rt3b"));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  // Backend a sits behind a proxy that lets the HELLO reply through and
  // then kills the connection at the first rollout reply frame — death
  // strictly before the first chunk reaches the router.
  FaultProxy proxy(a.server->port());
  FaultScript script;
  script.s2c = {FaultAction::pass(), FaultAction::close_before()};
  proxy.set_script(script);
  ASSERT_TRUE(proxy.start());

  Router router(router_cfg("rt3", {proxy.port(), b.server->port()}));
  ASSERT_TRUE(router.start());
  const auto want = direct_rollout(*a.sim, 5);

  // Config order makes the proxied backend the first placement; the kill
  // must be invisible: one clean stream, bitwise equal to a direct
  // rollout.
  net::Client client(client_cfg(router));
  const net::ClientResult r = client.rollout(small_request(*a.sim, 5));
  ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
  expect_bitwise_equal(r.frames, want);
  EXPECT_GE(counter("rt3.failovers"), 1.0);
  EXPECT_GE(counter("rt3.evictions"), 1.0);

  bool saw_evicted = false;
  for (const BackendSnapshot& snap : router.snapshot())
    saw_evicted |= snap.health == BackendHealth::Evicted;
  EXPECT_TRUE(saw_evicted);

  router.stop();
  proxy.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, BackendDeathPostFirstChunkIsTypedBackendLost) {
  net::ServerConfig a_cfg = backend_cfg("rt4a");
  a_cfg.chunk_frames = 1;  // several reply frames per rollout
  BackendHarness a(a_cfg);
  BackendHarness b(backend_cfg("rt4b"));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  // HELLO reply and first chunk pass; the connection dies before chunk
  // two. Retrying elsewhere would duplicate the streamed frames, so the
  // router must NOT fail over even though backend b is sitting right there.
  FaultProxy proxy(a.server->port());
  FaultScript script;
  script.s2c = {FaultAction::pass(), FaultAction::pass(),
                FaultAction::close_before()};
  proxy.set_script(script);
  ASSERT_TRUE(proxy.start());

  Router router(router_cfg("rt4", {proxy.port(), b.server->port()}));
  ASSERT_TRUE(router.start());

  net::Client client(client_cfg(router));
  const net::ClientResult r = client.rollout(small_request(*a.sim, 4));
  ASSERT_TRUE(r.transport_ok) << r.transport_error;
  EXPECT_TRUE(r.is_net_error);
  EXPECT_EQ(r.net_error, net::NetError::BackendLost);
  EXPECT_GE(counter("rt4.backend_lost"), 1.0);
  EXPECT_EQ(b.scheduler->stats().snapshot().completed, 0u);  // no blind retry

  // The fleet is not poisoned: the dead backend is evicted and the next
  // request lands on the sibling.
  const auto want = direct_rollout(*a.sim, 4);
  const net::ClientResult next = client.rollout(small_request(*a.sim, 4));
  ASSERT_TRUE(next.ok()) << next.transport_error << next.error;
  expect_bitwise_equal(next.frames, want);
  EXPECT_EQ(b.scheduler->stats().snapshot().completed, 1u);

  router.stop();
  proxy.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, SlowBackendEvictedThenReadmitted) {
  BackendHarness a(backend_cfg("rt5a"));
  ASSERT_TRUE(a.start());
  FaultProxy proxy(a.server->port());
  ASSERT_TRUE(proxy.start());

  RouterConfig cfg = router_cfg("rt5", {proxy.port()});
  cfg.probe_interval_ms = 50.0;  // probes ARE the subject here
  cfg.probe_timeout_ms = 100.0;
  cfg.tuning.readmit_backoff_ms = 50.0;
  Router router(cfg);
  ASSERT_TRUE(router.start());

  // Healthy first: a probe sweep must mark the backend up.
  ASSERT_TRUE(eventually([&] {
    return router.snapshot()[0].health == BackendHealth::Healthy;
  }));

  // Now every reply (including probe replies) crawls slower than the probe
  // deadline: the next sweep evicts.
  FaultScript slow;
  slow.s2c_default = FaultAction::delay(400.0);
  proxy.set_script(slow);
  ASSERT_TRUE(eventually([&] {
    return router.snapshot()[0].health == BackendHealth::Evicted;
  })) << "slow backend was never evicted";
  EXPECT_GE(counter("rt5.evictions"), 1.0);

  // Recovery: replies speed up, the re-admission handshake succeeds after
  // the backoff, and the backend serves again.
  proxy.set_script(FaultScript{});
  ASSERT_TRUE(eventually([&] {
    return router.snapshot()[0].health == BackendHealth::Healthy;
  })) << "recovered backend was never re-admitted";
  EXPECT_GE(counter("rt5.readmissions"), 1.0);

  const auto want = direct_rollout(*a.sim, 3);
  net::Client client(client_cfg(router));
  const net::ClientResult r = client.rollout(small_request(*a.sim, 3));
  ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
  expect_bitwise_equal(r.frames, want);

  router.stop();
  proxy.stop();
  a.server->stop();
}

TEST(RouterFleet, AllBackendsBusySurfacesBusyEndToEnd) {
  net::ServerConfig a_cfg = backend_cfg("rt6a");
  a_cfg.max_inflight_global = 1;  // HELLO advertises one slot each
  net::ServerConfig b_cfg = backend_cfg("rt6b");
  b_cfg.max_inflight_global = 1;
  BackendHarness a(a_cfg, {"m"}, sched_cfg(1, 8));
  BackendHarness b(b_cfg, {"m"}, sched_cfg(1, 8));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  Router router(router_cfg("rt6", {a.server->port(), b.server->port()}));
  ASSERT_TRUE(router.start());

  // Fill both advertised slots with pinned rollouts.
  a.scheduler->pause();
  b.scheduler->pause();
  std::atomic<int> ok_count{0};
  std::vector<std::thread> pinned;
  for (int c = 0; c < 2; ++c) {
    pinned.emplace_back([&] {
      net::Client client(client_cfg(router));
      if (client.rollout(small_request(*a.sim, 3)).ok()) ++ok_count;
    });
  }
  ASSERT_TRUE(eventually([&] {
    return a.scheduler->queue_depth() >= 1 && b.scheduler->queue_depth() >= 1;
  }));

  // The fleet is full: a no-retry client gets Busy — the signal its
  // backoff loop (the fleet's real admission queue) is built on.
  net::ClientConfig no_retry = client_cfg(router);
  no_retry.busy_max_retries = 0;
  net::Client rejected(no_retry);
  const net::ClientResult r = rejected.rollout(small_request(*a.sim, 3));
  ASSERT_TRUE(r.transport_ok) << r.transport_error;
  EXPECT_TRUE(r.is_net_error);
  EXPECT_EQ(r.net_error, net::NetError::Busy);
  EXPECT_GE(counter("rt6.busy_rejected"), 1.0);

  a.scheduler->resume();
  b.scheduler->resume();
  for (auto& t : pinned) t.join();
  EXPECT_EQ(ok_count.load(), 2);

  router.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, DrainUnderLoadLosesZeroAcceptedJobs) {
  BackendHarness a(backend_cfg("rt7a"));
  BackendHarness b(backend_cfg("rt7b"));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  Router router(router_cfg("rt7", {a.server->port(), b.server->port()}));
  ASSERT_TRUE(router.start());
  const auto want = direct_rollout(*a.sim, 4);

  // Four accepted-and-proxied requests pinned in the backends' schedulers.
  a.scheduler->pause();
  b.scheduler->pause();
  constexpr int kClients = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      net::Client client(client_cfg(router));
      const net::ClientResult r = client.rollout(small_request(*a.sim, 4));
      if (r.ok() && r.frames.size() == want.size()) ++ok_count;
    });
  }
  ASSERT_TRUE(eventually([&] {
    return a.scheduler->queue_depth() + b.scheduler->queue_depth() >=
           kClients;
  }));
  // A connection accepted before the drain begins, submitting during it.
  net::Client late(client_cfg(router));
  ASSERT_TRUE(late.connect());

  std::thread stopper([&] { router.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Mid-drain submissions are refused with the same typed ShuttingDown a
  // draining server answers — clients cannot tell router and server apart.
  const net::ClientResult refused = late.rollout(small_request(*a.sim, 4));
  ASSERT_TRUE(refused.transport_ok) << refused.transport_error;
  EXPECT_TRUE(refused.is_net_error);
  EXPECT_EQ(refused.net_error, net::NetError::ShuttingDown);

  a.scheduler->resume();
  b.scheduler->resume();
  for (auto& t : clients) t.join();
  stopper.join();
  EXPECT_EQ(ok_count.load(), kClients);  // zero accepted jobs dropped
  EXPECT_FALSE(router.running());

  // Drain ordering: the router let go of the backends before they stopped,
  // so both still serve directly and drain cleanly afterwards.
  net::ClientConfig direct_cfg;
  direct_cfg.port = a.server->port();
  net::Client direct_a(direct_cfg);
  EXPECT_TRUE(direct_a.rollout(small_request(*a.sim, 2)).ok());
  a.server->stop();
  b.server->stop();

  router.stop();  // idempotent
}

/// Lines of /proc/self/maps: one per memory mapping of this process.
long mapping_count() {
  std::ifstream maps("/proc/self/maps");
  long lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(RouterFleet, FinishedClientSessionsAreReleased) {
  BackendHarness a(backend_cfg("rt8a"));
  ASSERT_TRUE(a.start());
  Router router(router_cfg("rt8", {a.server->port()}));
  ASSERT_TRUE(router.start());

  // Each client connection gets its own session thread. A thread that has
  // exited but was never joined keeps its stack and guard page mapped, so
  // 200 short-lived clients would leave ~400 mappings behind; a router
  // that reaps its finished sessions holds on to almost none.
  const long before = mapping_count();
  for (int i = 0; i < 200; ++i) {
    net::WireHelloReply hello;
    ASSERT_TRUE(raw_hello(router.port(), hello)) << "connection " << i;
  }
  ASSERT_TRUE(eventually([] {
    return obs::MetricsRegistry::global()
               .gauge("rt8.active_connections")
               .value() == 0.0;
  }));
  EXPECT_LT(mapping_count() - before, 50);

  router.stop();
  a.server->stop();
}

}  // namespace
}  // namespace gns::router
