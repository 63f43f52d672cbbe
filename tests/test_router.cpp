// Router fleet E2E over loopback, driven by the net_fault proxy: placement
// spreads by in-flight load and respects HELLO-advertised models, a backend
// killed before its first chunk fails over transparently (bitwise-identical
// stream), one killed after streaming surfaces a typed BackendLost, slow
// backends are evicted and re-admitted, a full fleet surfaces Busy, drain
// loses zero accepted jobs, finished client connections leave nothing
// behind, the router owns no threads, and a client stalled mid-frame
// does not hold up the drain. A scripted backend that breaks the protocol
// (malformed chunks, bytes after its reply) is failed over, never trusted,
// and a pooled connection the backend has closed is redialed, not blamed.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "exec/executor.hpp"
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
  // capacity capped at what the router itself admits, current protocol.
  net::WireHelloReply hello;
  ASSERT_TRUE(raw_hello(router.port(), hello));
  EXPECT_EQ(hello.protocol_version, net::kProtocolVersion);
  ASSERT_EQ(hello.models.size(), 1u);
  EXPECT_EQ(hello.models[0], "m");
  // Two backends of 64 slots each sum to 128, but the router's server
  // admits max_inflight_global = 64 requests in flight.
  EXPECT_EQ(hello.max_inflight, 64u);
  EXPECT_EQ(hello.draining, 0u);

  router.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, StalePooledConnectionIsRedialedNotEvicted) {
  // Backend a closes a connection idle for 100 ms, so after a pause the
  // router's pooled connection to it is stale. The next request must dial
  // a fresh one, not read EOF and evict a healthy backend.
  net::ServerConfig a_cfg = backend_cfg("rt13a");
  a_cfg.idle_timeout_ms = 100.0;
  BackendHarness a(a_cfg);
  BackendHarness b(backend_cfg("rt13b"));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  // Idle backends tie on in-flight load, and a tie places on the first in
  // config order: both requests go to a.
  Router router(router_cfg("rt13", {a.server->port(), b.server->port()}));
  ASSERT_TRUE(router.start());
  const auto want = direct_rollout(*a.sim, 3);

  net::Client client(client_cfg(router));
  const net::ClientResult first = client.rollout(small_request(*a.sim, 3));
  ASSERT_TRUE(first.ok()) << first.transport_error << first.error;
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const net::ClientResult second = client.rollout(small_request(*a.sim, 3));
  ASSERT_TRUE(second.ok()) << second.transport_error << second.error;
  expect_bitwise_equal(second.frames, want);
  EXPECT_EQ(counter("rt13.evictions"), 0.0);
  EXPECT_EQ(counter("rt13.failovers"), 0.0);
  EXPECT_EQ(a.scheduler->stats().snapshot().completed, 2u);

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
  // A completed connect() is not yet an accept: wait for the router to
  // take it, or the drain may close the listener with it in the backlog.
  net::Client late(client_cfg(router));
  ASSERT_TRUE(late.connect());
  ASSERT_TRUE(eventually([] {
    return obs::MetricsRegistry::global()
               .gauge("rt7.active_connections")
               .value() >= kClients + 1;
  }));

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

  // A finished client must leave nothing mapped behind. A router that gave
  // each client a thread and never joined the exited ones kept their
  // stacks and guard pages mapped: 200 short-lived clients left ~400
  // mappings. One that releases its finished connections holds on to
  // almost none.
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

/// Entries of /proc/self/task: one per thread of this process.
long thread_count() {
  long threads = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++threads;
  return threads;
}

double gauge(const std::string& name) {
  return obs::MetricsRegistry::global().gauge(name).value();
}

TEST(RouterFleet, RouterOwnsNoThreads) {
  // The executor's workers and event thread, and the backend, come first:
  // they are the threads the router shares.
  (void)exec::Executor::global();
  BackendHarness a(backend_cfg("rt9a"));
  ASSERT_TRUE(a.start());
  const long before = thread_count();

  Router router(router_cfg("rt9", {a.server->port()}));
  ASSERT_TRUE(router.start());
  EXPECT_EQ(thread_count(), before);

  // Open clients are executor watches, not threads.
  std::vector<int> fds;
  for (int i = 0; i < 8; ++i) fds.push_back(raw_connect(router.port()));
  ASSERT_TRUE(
      eventually([] { return gauge("rt9.active_connections") == 8.0; }));
  EXPECT_EQ(thread_count(), before);

  for (const int fd : fds) ::close(fd);
  router.stop();
  a.server->stop();
}

/// True when the peer closes `fd` (recv reads 0) within two seconds.
bool reads_eof(int fd) {
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::uint8_t byte = 0;
  return ::recv(fd, &byte, 1, 0) == 0;
}

TEST(RouterFleet, StalledPartialFrameDoesNotHoldTheDrain) {
  BackendHarness a(backend_cfg("rt10a"));
  ASSERT_TRUE(a.start());
  RouterConfig cfg = router_cfg("rt10", {a.server->port()});
  cfg.drain_timeout_ms = 2000.0;
  Router router(cfg);
  ASSERT_TRUE(router.start());

  // One client stops 10 bytes into a frame header; another stays
  // connected and idle. Neither has a request in flight, so the drain
  // owes them nothing.
  const double rx_before = counter("rt10.bytes_rx");
  const int stalled = raw_connect(router.port());
  const int idle = raw_connect(router.port());
  const auto wire = net::encode_hello(1, net::WireHello{});
  ASSERT_EQ(::send(stalled, wire.data(), 10, MSG_NOSIGNAL), 10);
  ASSERT_TRUE(
      eventually([] { return gauge("rt10.active_connections") == 2.0; }));
  ASSERT_TRUE(eventually(
      [&] { return counter("rt10.bytes_rx") - rx_before >= 10.0; }));

  const auto t0 = std::chrono::steady_clock::now();
  router.stop();
  const double stop_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(stop_ms, 500.0);
  EXPECT_TRUE(reads_eof(stalled));
  EXPECT_TRUE(reads_eof(idle));
  ::close(stalled);
  ::close(idle);
  a.server->stop();
}

// ---- A backend that breaks the protocol on purpose --------------------------

/// A backend played by the test on a thread of its own: it answers a HELLO
/// as a server of model "m" would, and each RolloutRequest with the bytes
/// `reply` returns for it.
class FakeBackend {
 public:
  using Reply = std::function<std::vector<std::uint8_t>(
      std::uint64_t request_id, const serve::RolloutRequest& request)>;

  explicit FakeBackend(Reply reply) : reply_(std::move(reply)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 64), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { loop(); });
  }
  ~FakeBackend() {
    stop_ = true;
    thread_.join();
    ::close(listen_fd_);
  }
  FakeBackend(const FakeBackend&) = delete;
  FakeBackend& operator=(const FakeBackend&) = delete;

  [[nodiscard]] int port() const { return port_; }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> buf;
  };

  void loop() {
    std::vector<Conn> conns;
    while (!stop_) {
      std::vector<pollfd> fds{{listen_fd_, POLLIN, 0}};
      for (const Conn& conn : conns) fds.push_back({conn.fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 10) <= 0) continue;
      for (std::size_t i = conns.size(); i-- > 0;) {
        if (fds[i + 1].revents == 0 || serve(conns[i])) continue;
        ::close(conns[i].fd);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
      }
      if (fds[0].revents & POLLIN) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) conns.push_back({fd, {}});
      }
    }
    for (const Conn& conn : conns) ::close(conn.fd);
  }

  /// Answers each whole frame `conn` has sent; false once it is gone.
  bool serve(Conn& conn) {
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    conn.buf.insert(conn.buf.end(), chunk, chunk + n);
    net::FrameView frame;
    net::DecodeError error;
    while (net::try_decode_frame(conn.buf.data(), conn.buf.size(), frame,
                                 error) == net::DecodeStatus::Ok) {
      const std::vector<std::uint8_t> out = answer(frame);
      conn.buf.erase(conn.buf.begin(),
                     conn.buf.begin() +
                         static_cast<std::ptrdiff_t>(frame.frame_bytes));
      // One send, so a reply and what follows it arrive in one read.
      if (::send(conn.fd, out.data(), out.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(out.size()))
        return false;
    }
    return true;
  }

  std::vector<std::uint8_t> answer(const net::FrameView& frame) {
    if (frame.type == net::MessageType::Hello) {
      net::WireHelloReply hello;
      hello.max_inflight = 64;
      hello.workers = 1;
      hello.models = {"m"};
      return net::encode_hello_reply(frame.request_id, hello);
    }
    serve::RolloutRequest request;
    std::string parse_error;
    EXPECT_TRUE(net::decode_rollout_request(frame, request, parse_error))
        << parse_error;
    return reply_(frame.request_id, request);
  }

  const Reply reply_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// `frames` as one RolloutChunk starting at rollout frame `first`.
std::vector<std::uint8_t> chunk_frame(
    std::uint64_t request_id, std::uint32_t first,
    const std::vector<std::vector<double>>& frames) {
  net::WireChunk chunk;
  chunk.first_frame = first;
  chunk.frame_len = static_cast<std::uint32_t>(frames.front().size());
  for (const auto& frame : frames)
    chunk.data.insert(chunk.data.end(), frame.begin(), frame.end());
  return net::encode_rollout_chunk(request_id, chunk);
}

/// A StatusReply for a rollout that completed with `total` frames.
std::vector<std::uint8_t> ok_status_frame(std::uint64_t request_id,
                                          std::uint32_t total) {
  net::WireStatus status;
  status.status = serve::JobStatus::Ok;
  status.total_frames = total;
  return net::encode_status_reply(request_id, status);
}

void append(std::vector<std::uint8_t>& out,
            const std::vector<std::uint8_t>& bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

TEST(RouterFleet, MalformedChunksFailTheBackendNotTheRouter) {
  BackendHarness b(backend_cfg("rt11b"));
  ASSERT_TRUE(b.start());
  const auto want = direct_rollout(*b.sim, 3);
  std::vector<double> longer = want[0];  // one double past a window frame
  longer.push_back(0.5);

  // Each reply to a 3-step request is self-consistent, StatusReply
  // included, but is not that request's answer: a frame longer than the
  // window's, a fourth frame, and a second chunk whose frames are longer
  // than the first's (which a relay that re-chunks cannot encode).
  std::atomic<int> kind{0};
  FakeBackend fake([&](std::uint64_t id, const serve::RolloutRequest&) {
    std::vector<std::uint8_t> out;
    switch (kind.load()) {
      case 0:
        append(out, chunk_frame(id, 0, {longer}));
        append(out, ok_status_frame(id, 1));
        break;
      case 1:
        append(out, chunk_frame(id, 0, {want[0], want[1], want[2], want[2]}));
        append(out, ok_status_frame(id, 4));
        break;
      default:
        append(out, chunk_frame(id, 0, {want[0]}));
        append(out, chunk_frame(id, 1, {longer}));
        append(out, ok_status_frame(id, 2));
        break;
    }
    return out;
  });

  for (int k = 0; k < 3; ++k) {
    kind = k;
    const std::string prefix = "rt11_" + std::to_string(k);
    // Config order places the request on the fake first.
    Router router(router_cfg(prefix, {fake.port(), b.server->port()}));
    ASSERT_TRUE(router.start());
    net::Client client(client_cfg(router));
    const net::ClientResult r = client.rollout(small_request(*b.sim, 3));
    ASSERT_TRUE(r.transport_ok) << r.transport_error;
    if (k < 2) {
      // Nothing valid arrived: the sibling answers, and the client never
      // knows.
      ASSERT_TRUE(r.ok()) << "case " << k << ": " << r.error;
      expect_bitwise_equal(r.frames, want);
      EXPECT_GE(counter(prefix + ".failovers"), 1.0);
    } else {
      // The first chunk was valid: the same typed error as a backend that
      // dies after it, and the next request goes to the sibling.
      EXPECT_TRUE(r.is_net_error);
      EXPECT_EQ(r.net_error, net::NetError::BackendLost);
      const net::ClientResult next = client.rollout(small_request(*b.sim, 3));
      ASSERT_TRUE(next.ok()) << next.transport_error << next.error;
      expect_bitwise_equal(next.frames, want);
    }
    EXPECT_EQ(router.snapshot()[0].health, BackendHealth::Evicted)
        << "case " << k;
    router.stop();
  }
  b.server->stop();
}

TEST(RouterFleet, ByteAfterAReplyFailsOverInsteadOfAborting) {
  BackendHarness b(backend_cfg("rt12b"));
  ASSERT_TRUE(b.start());
  const auto want = direct_rollout(*b.sim, 3);
  // A correct rollout, then one byte no frame starts with.
  FakeBackend fake([&](std::uint64_t id, const serve::RolloutRequest&) {
    std::vector<std::uint8_t> out = chunk_frame(id, 0, want);
    append(out, ok_status_frame(id, 3));
    out.push_back(0);
    return out;
  });

  // The stray byte closes the connection right after its final callback
  // has run. A holder that took the connection from the pool in between
  // gets a failure for its exchange, not an exception on a worker.
  {
    exec::TaskCount tasks;
    auto conn = std::make_shared<BackendConn>(
        BackendAddress{"127.0.0.1", fake.port()}, 2000.0, tasks);
    std::promise<bool> replied;
    conn->exchange(
        net::encode_rollout_request(conn->next_request_id(),
                                    small_request(*b.sim, 3)),
        2000.0,
        [&](const net::FrameView& frame) {
          if (frame.type != net::MessageType::StatusReply) return false;
          replied.set_value(true);
          return true;
        },
        [&](const std::string&) { replied.set_value(false); });
    ASSERT_TRUE(replied.get_future().get());
    ASSERT_TRUE(eventually([&] { return !conn->reusable(); }));
    std::promise<std::string> failed;
    conn->exchange(
        net::encode_hello(conn->next_request_id(), net::WireHello{}), 2000.0,
        [](const net::FrameView&) { return true; },
        [&](const std::string& why) { failed.set_value(why); });
    std::future<std::string> why = failed.get_future();
    ASSERT_EQ(why.wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
    EXPECT_FALSE(why.get().empty());
    conn->close();
    tasks.wait_idle();
  }

  // Through a router, at any worker count: whichever way the byte lands,
  // every request gets the bitwise answer from one backend or the other.
  RouterConfig cfg = router_cfg("rt12", {fake.port(), b.server->port()});
  Router router(cfg);
  ASSERT_TRUE(router.start());
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      net::Client client(client_cfg(router));
      for (int i = 0; i < 5; ++i) {
        const net::ClientResult r = client.rollout(small_request(*b.sim, 3));
        if (r.ok() && r.frames == want) ++ok_count;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), 20);
  router.stop();
  b.server->stop();
}

}  // namespace
}  // namespace gns::router
