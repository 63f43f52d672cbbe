// Net front-end E2E over loopback: streamed results bitwise-identical to
// in-process rollouts, concurrent clients with mixed valid/invalid traffic,
// typed errors for corrupted frames, Busy backpressure + client retry, and
// a graceful drain that drops zero in-flight jobs.
//
// Malformed traffic is staged with the frame-boundary fault proxy
// (tests/net_fault.hpp) between a real net::Client and the server —
// scripted corruption/truncation instead of hand-mangled raw sockets — so
// the same run also pins the CLIENT's behavior on a poisoned stream. Raw
// sockets remain only where the test IS a foreign peer (a client speaking
// a retired protocol version).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "net/net.hpp"
#include "obs/obs.hpp"
#include "serve/serve.hpp"

#include "net_fault.hpp"

namespace gns::net {
namespace {

using net_fault::FaultAction;
using net_fault::FaultProxy;
using net_fault::FaultScript;

using core::FeatureConfig;
using core::GnsConfig;
using core::LearnedSimulator;
using core::SceneContext;

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

serve::RolloutRequest small_request(const LearnedSimulator& sim, int steps) {
  io::Dataset ds = small_dataset();
  const io::Trajectory& traj = ds.trajectories[0];
  serve::RolloutRequest req;
  req.model = "m";
  req.steps = steps;
  req.material = traj.material_param;
  const int w = sim.features().window_size();
  for (int t = 0; t < w; ++t) req.window.push_back(traj.frames[t]);
  return req;
}

/// Direct in-process rollout of the same request: the loopback reference.
std::vector<std::vector<double>> direct_rollout(const LearnedSimulator& sim,
                                                int steps) {
  io::Dataset ds = small_dataset();
  SceneContext ctx;
  ctx.material = ad::Tensor::scalar(ds.trajectories[0].material_param);
  return sim.rollout(sim.window_from_trajectory(ds.trajectories[0]), steps,
                     ctx);
}

serve::SchedulerConfig sched_cfg(int workers, int queue_capacity) {
  serve::SchedulerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_capacity;
  return cfg;
}

/// Everything one loopback test needs, on an ephemeral port.
struct Harness {
  explicit Harness(ServerConfig net_config = {},
                   serve::SchedulerConfig sched_config = sched_cfg(2, 32)) {
    registry = std::make_shared<serve::ModelRegistry>();
    registry->put("m", make_small_sim());
    sim = registry->get("m");
    sched_config.stats_prefix = "serve_net_test";
    scheduler =
        std::make_unique<serve::JobScheduler>(registry, sched_config);
    // ServerConfig defaults to port 0 (ephemeral); tests that need a
    // pre-reserved port set it explicitly.
    server = std::make_unique<Server>(*scheduler, std::move(net_config));
  }

  [[nodiscard]] bool start() { return server->start(); }

  [[nodiscard]] ClientConfig client_config() const {
    ClientConfig cfg;
    cfg.port = server->port();
    return cfg;
  }

  std::shared_ptr<serve::ModelRegistry> registry;
  serve::ModelRegistry::Handle sim;
  std::unique_ptr<serve::JobScheduler> scheduler;
  std::unique_ptr<Server> server;
};

void expect_bitwise_equal(const std::vector<std::vector<double>>& got,
                          const std::vector<std::vector<double>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(got[t].size(), want[t].size());
    for (std::size_t k = 0; k < want[t].size(); ++k) {
      // Bitwise, not approximate: the wire carries raw IEEE doubles and the
      // scheduler's rollouts are bit-identical to serial execution.
      ASSERT_EQ(got[t][k], want[t][k]) << "frame " << t << " component " << k;
    }
  }
}

// ---- Raw-socket helpers for malformed traffic ------------------------------

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

/// One blocking connect() to 127.0.0.1:port: 0 when it completed, else
/// its errno. The socket is closed either way.
int connect_errno(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int error =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0
          ? 0
          : errno;
  ::close(fd);
  return error;
}

void raw_send(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Blocking-reads one frame; returns false on orderly close.
bool raw_read_frame(int fd, std::vector<std::uint8_t>& buf, FrameView& frame) {
  for (;;) {
    DecodeError error;
    if (try_decode_frame(buf.data(), buf.size(), frame, error) ==
        DecodeStatus::Ok) {
      return true;
    }
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

// ---- Tests -----------------------------------------------------------------

TEST(NetServer, LoopbackRolloutBitwiseEqualsDirect) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t1";
  cfg.chunk_frames = 3;  // exercise multi-chunk reassembly: 7 % 3 != 0
  Harness h(cfg);
  ASSERT_TRUE(h.start());

  Client client(h.client_config());
  const ClientResult result = client.rollout(small_request(*h.sim, 7));
  ASSERT_TRUE(result.transport_ok) << result.transport_error;
  ASSERT_TRUE(result.ok()) << result.error;
  expect_bitwise_equal(result.frames, direct_rollout(*h.sim, 7));
  EXPECT_GT(result.exec_ms, 0.0);

  h.server->stop();
}

TEST(NetServer, EightConcurrentClientsMixedValidInvalid) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t2";
  Harness h(cfg, sched_cfg(4, 64));
  ASSERT_TRUE(h.start());

  const auto want_short = direct_rollout(*h.sim, 3);
  const auto want_long = direct_rollout(*h.sim, 6);

  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(h.client_config());
      // Invalid first: a missing model must come back as a typed job
      // status without poisoning the connection.
      serve::RolloutRequest bad = small_request(*h.sim, 2);
      bad.model = "no_such_model";
      const ClientResult bad_result = client.rollout(bad);
      if (!bad_result.transport_ok || bad_result.is_net_error ||
          bad_result.status != serve::JobStatus::ModelNotFound) {
        ++failures;
        return;
      }
      // Then a valid rollout on the same connection.
      const int steps = c % 2 == 0 ? 3 : 6;
      const ClientResult good = client.rollout(small_request(*h.sim, steps));
      if (!good.ok()) {
        ++failures;
        return;
      }
      const auto& want = c % 2 == 0 ? want_short : want_long;
      if (good.frames.size() != want.size()) {
        ++failures;
        return;
      }
      for (std::size_t t = 0; t < want.size(); ++t) {
        if (good.frames[t] != want[t]) {  // bitwise (vector operator==)
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const serve::StatsSnapshot snap = h.scheduler->stats().snapshot();
  EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(snap.failed, static_cast<std::uint64_t>(kClients));  // bad model

  h.server->stop();
}

TEST(NetServer, ProxyCorruptedFramesGetTypedErrorsWithoutKillingValidTraffic) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t3";
  Harness h(cfg);
  ASSERT_TRUE(h.start());
  const auto want = direct_rollout(*h.sim, 2);

  FaultProxy proxy(h.server->port());
  ASSERT_TRUE(proxy.start());
  ClientConfig through = h.client_config();
  through.port = proxy.port();
  through.busy_max_retries = 0;  // faults must surface, not retry away

  // Non-fatal: the proxy flips the TYPE byte of the first request. Framing
  // stays intact, so the server answers typed BadType with the request id
  // echoed — and the SAME connection then carries a clean rollout (frame 1
  // falls past the script and passes untouched).
  {
    FaultScript script;
    script.c2s = {FaultAction::corrupt(5)};
    proxy.set_script(script);
    Client client(through);
    const ClientResult bad = client.rollout(small_request(*h.sim, 2));
    ASSERT_TRUE(bad.transport_ok) << bad.transport_error;
    ASSERT_TRUE(bad.is_net_error);
    EXPECT_EQ(bad.net_error, NetError::BadType);
    const ClientResult good = client.rollout(small_request(*h.sim, 2));
    ASSERT_TRUE(good.ok()) << good.transport_error << good.error;
    expect_bitwise_equal(good.frames, want);
  }

  // Fatal: corrupting the MAGIC loses the framing. The server replies
  // ErrorReply{BadMagic} with request id 0 (it cannot trust the header)
  // and hangs up; the client refuses the mismatched id rather than
  // mis-assembling a reply, so the fault surfaces as a transport error.
  {
    FaultScript script;
    script.c2s = {FaultAction::corrupt(0)};
    proxy.set_script(script);
    Client client(through);
    const ClientResult r = client.rollout(small_request(*h.sim, 2));
    EXPECT_FALSE(r.transport_ok);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.transport_error.empty());
  }
  EXPECT_GE(
      obs::MetricsRegistry::global().counter("net_t3.reject.bad_magic").value(),
      1u);

  // Truncation: only half the request header arrives before the cut. The
  // server never sees a complete frame and must simply drop the
  // connection — no reply, no crash, nothing counted as a request.
  {
    FaultScript script;
    script.c2s = {FaultAction::truncate(kHeaderBytes / 2)};
    proxy.set_script(script);
    Client client(through);
    EXPECT_FALSE(client.rollout(small_request(*h.sim, 2)).transport_ok);
  }

  // None of it harmed valid traffic: a direct client still gets a
  // bitwise-identical rollout.
  {
    Client direct(h.client_config());
    const ClientResult r = direct.rollout(small_request(*h.sim, 2));
    ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
    expect_bitwise_equal(r.frames, want);
  }

  proxy.stop();
  h.server->stop();
}

TEST(NetServer, BackpressureBusyThenRetrySucceeds) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t4";
  cfg.max_inflight_global = 1;  // one in-flight job fills the server
  Harness h(cfg, sched_cfg(1, 8));
  ASSERT_TRUE(h.start());

  // Counters are process-wide: read them as deltas, so the test repeats.
  obs::Counter& busy_count =
      obs::MetricsRegistry::global().counter("net_t4.rejected_backpressure");
  const std::uint64_t busy_before = busy_count.value();

  // Paused workers pin the first job in-flight deterministically.
  h.scheduler->pause();
  std::thread first([&] {
    Client client(h.client_config());
    const ClientResult r = client.rollout(small_request(*h.sim, 2));
    EXPECT_TRUE(r.ok()) << r.error << r.transport_error;
  });
  // The job is in-flight once it reaches the scheduler queue.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.scheduler->queue_depth() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "job never queued";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // No-retry client: the cap surfaces as a Busy error.
  {
    ClientConfig no_retry = h.client_config();
    no_retry.busy_max_retries = 0;
    Client client(no_retry);
    const ClientResult r = client.rollout(small_request(*h.sim, 2));
    ASSERT_TRUE(r.transport_ok) << r.transport_error;
    EXPECT_TRUE(r.is_net_error);
    EXPECT_EQ(r.net_error, NetError::Busy);
  }

  // Retrying client started while the server is still full: it must absorb
  // at least one Busy before the slot frees up.
  std::thread second([&] {
    ClientConfig retry = h.client_config();
    retry.busy_max_retries = 100;
    retry.busy_backoff_ms = 2.0;
    Client client(retry);
    const ClientResult r = client.rollout(small_request(*h.sim, 2));
    EXPECT_TRUE(r.ok()) << r.error << r.transport_error;
    EXPECT_GE(r.busy_retries, 1);
  });
  // Hold the server full until the retrying client has been rejected once.
  // No-retry client + second's 1st attempt.
  while (busy_count.value() - busy_before < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "second client never saw Busy";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  h.scheduler->resume();

  first.join();
  second.join();
  h.server->stop();
}

TEST(NetServer, GracefulDrainDropsNoInflightJobs) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t5";
  Harness h(cfg, sched_cfg(2, 32));
  ASSERT_TRUE(h.start());

  const auto want = direct_rollout(*h.sim, 5);

  // Pin 4 jobs in-flight (paused scheduler), plus one idle connection that
  // will try to submit *during* the drain.
  h.scheduler->pause();
  constexpr int kClients = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      Client client(h.client_config());
      const ClientResult r = client.rollout(small_request(*h.sim, 5));
      if (r.ok() && r.frames.size() == want.size()) ++ok_count;
    });
  }
  Client late(h.client_config());
  ASSERT_TRUE(late.connect());

  // A completed connect() is not yet an accept: the server must have
  // accepted `late` before the drain starts, or it never will.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.scheduler->queue_depth() < kClients ||
         h.server->active_connections() < kClients + 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "jobs never queued or connections never accepted";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // stop() blocks until the drain completes, so it runs on its own thread;
  // the in-flight jobs only finish once the scheduler resumes.
  std::thread stopper([&] { h.server->stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // A request arriving mid-drain is refused, not queued and not dropped.
  const ClientResult refused = late.rollout(small_request(*h.sim, 5));
  ASSERT_TRUE(refused.transport_ok) << refused.transport_error;
  EXPECT_TRUE(refused.is_net_error);
  EXPECT_EQ(refused.net_error, NetError::ShuttingDown);

  h.scheduler->resume();
  for (auto& t : clients) t.join();
  stopper.join();

  // Zero dropped: every in-flight job resolved Ok and its reply arrived.
  EXPECT_EQ(ok_count.load(), kClients);
  const serve::StatsSnapshot snap = h.scheduler->stats().snapshot();
  EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(snap.cancelled, 0u);
  EXPECT_EQ(snap.shut_down, 0u);

  // The listener is gone: new connections are refused.
  Client post_drain(h.client_config());
  EXPECT_FALSE(post_drain.connect());
  EXPECT_EQ(h.server->active_connections(), 0);
}

TEST(NetServer, StoppingAnIdleServerReleasesItsListener) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t5b";
  Harness h(cfg);
  ASSERT_TRUE(h.start());
  const int port = h.server->port();
  h.server->stop();

  // No connection and no timer wake the event thread after stop(), yet
  // the listener must be gone: a connect() is refused at once instead of
  // landing in a backlog nobody accepts from.
  EXPECT_EQ(connect_errno(port), ECONNREFUSED);
}

TEST(NetServer, ConnectionClosedFromATimeoutTimerReachesThePeer) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t5c";
  cfg.read_timeout_ms = 50.0;
  Harness h(cfg);
  ASSERT_TRUE(h.start());

  // Half a header starts the read timeout; the connection's timeout timer
  // then closes it. Nothing else wakes the event thread, and the peer
  // must still see the close.
  const int fd = raw_connect(h.server->port());
  raw_send(fd, {0x47, 0x4E});
  timeval tv{};
  tv.tv_sec = 5;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  char c;
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0) << "no FIN within 5 s";
  ::close(fd);
  h.server->stop();
}

TEST(NetServer, ReplyIsNotHeldForATimer) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t1b";
  Harness h(cfg);
  ASSERT_TRUE(h.start());

  // Each reply leaves the connection idle with its idle timeout armed; the
  // next request arrives at once. Its reply must go out when the rollout
  // finishes, not when some timer next services the connection.
  Client client(h.client_config());
  ASSERT_TRUE(client.rollout(small_request(*h.sim, 1)).ok());
  double least_wait_ms = 1e9;
  for (int i = 0; i < 3; ++i) {
    const auto sent = std::chrono::steady_clock::now();
    const ClientResult result = client.rollout(small_request(*h.sim, 1));
    const double client_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - sent)
                                 .count();
    ASSERT_TRUE(result.ok()) << result.error;
    least_wait_ms = std::min(least_wait_ms, client_ms - result.total_ms);
  }
  EXPECT_LT(least_wait_ms, 25.0);

  h.server->stop();
}

TEST(NetServer, ConnectDuringDrainIsRefusedAtOnce) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t5d";
  Harness h(cfg, sched_cfg(1, 8));
  ASSERT_TRUE(h.start());
  const int port = h.server->port();

  // One job held in flight by the paused scheduler keeps the drain open.
  h.scheduler->pause();
  std::thread holder([&] {
    Client client(h.client_config());
    EXPECT_TRUE(client.rollout(small_request(*h.sim, 2)).ok());
  });
  Client probe(h.client_config());
  ASSERT_TRUE(probe.stats().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.scheduler->queue_depth() < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(h.scheduler->queue_depth(), 1) << "job never queued";

  std::thread stopper([&] { h.server->stop(); });
  // The probe's idle connection answers until the drain shows: in a reply,
  // or as the close of a connection with nothing left in flight.
  while (std::chrono::steady_clock::now() < deadline) {
    const Client::StatsResult stats = probe.stats();
    if (!stats.ok() || stats.reply.draining != 0) break;
  }

  // The listener is already closed, not left to the end of the drain.
  EXPECT_EQ(connect_errno(port), ECONNREFUSED);

  h.scheduler->resume();
  holder.join();
  stopper.join();
}

TEST(NetServer, SilentConnectionIsClosedByIdleTimeout) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t5e";
  cfg.idle_timeout_ms = 100.0;
  Harness h(cfg);
  ASSERT_TRUE(h.start());

  // Connected, never sends: the idle timeout still frees its slot.
  const int fd = raw_connect(h.server->port());
  timeval tv{};
  tv.tv_sec = 2;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  char c;
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0) << "no FIN within 2 s";
  ::close(fd);
  h.server->stop();
}

TEST(NetServer, BusyConnectionSchedulesNoTimer) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t5f";
  cfg.idle_timeout_ms = 0.0;
  cfg.read_timeout_ms = 0.0;
  Harness h(cfg);  // no batch window
  ASSERT_TRUE(h.start());

  // With no timeout, no deadline and no batch window nothing can expire,
  // so serving a request on a fresh connection arms no timer at all.
  obs::Counter& scheduled =
      obs::MetricsRegistry::global().counter("exec.timer.scheduled");
  const std::uint64_t before = scheduled.value();
  Client client(h.client_config());
  const ClientResult result = client.rollout(small_request(*h.sim, 20));
  ASSERT_TRUE(result.ok()) << result.error << result.transport_error;
  EXPECT_EQ(scheduled.value(), before);
  h.server->stop();
}

TEST(NetServer, TraceIdAndPhasesPropagateEndToEnd) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t6";
  Harness h(cfg);
  ASSERT_TRUE(h.start());

  // No request is in flight yet, so nothing records concurrently.
  obs::reset_trace();
  obs::set_trace_enabled(true);

  Client client(h.client_config());
  serve::RolloutRequest req = small_request(*h.sim, 4);
  req.trace_id = 0xABCD1234u;
  const ClientResult result = client.rollout(req);
  ASSERT_TRUE(result.transport_ok) << result.transport_error;
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.trace_id, 0xABCD1234u);  // echoed through the server
  EXPECT_FALSE(result.cached);
  EXPECT_EQ(result.cache_outcome, serve::CacheOutcome::None);  // no cache
  EXPECT_GT(result.phases.decode_us, 0.0);
  EXPECT_GT(result.phases.compute_us, 0.0);
  EXPECT_GT(result.phases.serialize_us, 0.0);
  EXPECT_EQ(result.phases.write_us, 0.0);  // on-wire convention
  // Phases are sequential, so their sum cannot exceed the server total.
  EXPECT_LE(result.phases.total_us(), result.total_ms * 1e3 * 1.5);

  // A request that leaves trace_id 0 gets a generated one.
  const ClientResult auto_traced = client.rollout(small_request(*h.sim, 2));
  ASSERT_TRUE(auto_traced.ok()) << auto_traced.error;
  EXPECT_NE(auto_traced.trace_id, 0u);

  h.server->stop();
  obs::set_trace_enabled(false);

  // One Perfetto trace shows the request's cross-layer life: the net
  // submit, the scheduler execute, and the final flush all carry the
  // client's trace id.
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("\"trace_id\":\"0x00000000abcd1234\""),
            std::string::npos);
  for (const char* span : {"net.conn.submit", "serve.scheduler.submit",
                           "serve.scheduler.execute", "net.conn.encode",
                           "net.conn.flush"}) {
    EXPECT_NE(json.find(span), std::string::npos) << span;
  }
  obs::reset_trace();
}

TEST(NetServer, StatsScrapeSnapshotsMetricsAndHealth) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t7";
  Harness h(cfg);
  ASSERT_TRUE(h.start());

  Client client(h.client_config());
  // One Ok rollout so the serve.phase.* histograms have samples.
  ASSERT_TRUE(client.rollout(small_request(*h.sim, 3)).ok());

  const Client::StatsResult prom = client.stats();
  ASSERT_TRUE(prom.ok()) << prom.transport_error << prom.error;
  EXPECT_GT(prom.reply.uptime_ms, 0.0);
  EXPECT_EQ(prom.reply.draining, 0u);
  EXPECT_GE(prom.reply.active_connections, 1u);  // at least this client
  EXPECT_EQ(prom.reply.inflight, 0u);            // rollout already resolved
  // The body is Prometheus text exposition with sanitized names: the
  // server's own counters and the scheduler's phase histograms are there.
  EXPECT_NE(prom.reply.body.find("# TYPE net_t7_accepted counter"),
            std::string::npos);
  EXPECT_NE(prom.reply.body.find(
                "serve_net_test_phase_compute_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(prom.reply.body.find("net_t7_inflight"), std::string::npos);

  const Client::StatsResult json = client.stats(WireStatsRequest::kJson);
  ASSERT_TRUE(json.ok()) << json.transport_error;
  EXPECT_EQ(json.reply.format, WireStatsRequest::kJson);
  EXPECT_NE(json.reply.body.find("\"counters\""), std::string::npos);

  h.server->stop();
}

TEST(NetServer, RetiredProtocolVersionGetsFatalBadVersion) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t8";
  Harness h(cfg);
  ASSERT_TRUE(h.start());

  // A client still speaking v2: a well-formed request whose header names a
  // retired version. The server must refuse it, not serve it.
  obs::Counter& bad_version =
      obs::MetricsRegistry::global().counter("net_t8.reject.bad_version");
  const std::uint64_t bad_version_before = bad_version.value();
  auto wire = encode_rollout_request(77, small_request(*h.sim, 5));
  wire[4] = 2;  // header version byte
  const int fd = raw_connect(h.server->port());
  raw_send(fd, wire);

  std::vector<std::uint8_t> buf;
  FrameView frame;
  ASSERT_TRUE(raw_read_frame(fd, buf, frame));
  EXPECT_EQ(buf[4], kProtocolVersion);  // the refusal speaks the one version
  EXPECT_EQ(frame.type, MessageType::ErrorReply);
  EXPECT_EQ(frame.request_id, 77u);
  WireError error;
  std::string parse_error;
  ASSERT_TRUE(decode_error_reply(frame, error, parse_error)) << parse_error;
  EXPECT_EQ(error.code, NetError::BadVersion);

  // Fatal: that one reply is all the peer gets before the server closes.
  buf.erase(buf.begin(),
            buf.begin() + static_cast<std::ptrdiff_t>(frame.frame_bytes));
  EXPECT_FALSE(raw_read_frame(fd, buf, frame));
  ::close(fd);
  EXPECT_EQ(bad_version.value() - bad_version_before, 1u);
  h.server->stop();
}

TEST(NetServer, RejectionsAreCountedPerCodeWithLiveGauges) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t9";
  cfg.max_inflight_global = 1;
  Harness h(cfg, sched_cfg(1, 8));
  ASSERT_TRUE(h.start());
  auto& metrics = obs::MetricsRegistry::global();

  // Pin one job in flight, then get rejected: reject.busy must count it
  // and the in-flight gauge must show the pinned job.
  h.scheduler->pause();
  std::thread first([&] {
    Client client(h.client_config());
    EXPECT_TRUE(client.rollout(small_request(*h.sim, 2)).ok());
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.scheduler->queue_depth() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(metrics.gauge("net_t9.inflight").value(), 1.0);
  EXPECT_EQ(metrics.gauge("net_t9.scheduler_queue_depth").value(), 1.0);

  {
    ClientConfig no_retry = h.client_config();
    no_retry.busy_max_retries = 0;
    Client client(no_retry);
    const ClientResult r = client.rollout(small_request(*h.sim, 2));
    ASSERT_TRUE(r.transport_ok) << r.transport_error;
    EXPECT_EQ(r.net_error, NetError::Busy);
  }
  EXPECT_GE(metrics.counter("net_t9.reject.busy").value(), 1u);

  h.scheduler->resume();
  first.join();

  // A framing-poisoned connection lands in reject.bad_magic — staged at
  // the fault proxy rather than by hand-mangling a raw socket.
  {
    FaultProxy proxy(h.server->port());
    ASSERT_TRUE(proxy.start());
    FaultScript script;
    script.c2s = {FaultAction::corrupt(0)};
    proxy.set_script(script);
    ClientConfig through = h.client_config();
    through.port = proxy.port();
    through.busy_max_retries = 0;
    Client client(through);
    EXPECT_FALSE(client.rollout(small_request(*h.sim, 2)).transport_ok);
    proxy.stop();
  }
  EXPECT_GE(metrics.counter("net_t9.reject.bad_magic").value(), 1u);

  h.server->stop();
}

TEST(NetServer, ConnectFailureIsTypedAndRetriesAreBounded) {
  // Find a port with nothing listening: bind ephemeral, read it, release.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int dead_port = ntohs(addr.sin_port);
  ::close(probe);

  ClientConfig cfg;
  cfg.port = dead_port;
  cfg.busy_max_retries = 3;
  cfg.busy_backoff_ms = 1.0;
  cfg.busy_backoff_max_ms = 4.0;
  Client client(cfg);
  const ClientResult r = client.rollout(serve::RolloutRequest{});
  EXPECT_FALSE(r.transport_ok);
  EXPECT_TRUE(r.connect_failed);
  EXPECT_EQ(r.connect_retries, 3);  // retried to the cap, then surfaced
  EXPECT_NE(r.transport_error.find("connect"), std::string::npos);
}

TEST(NetServer, ClientRetriesConnectUntilLateServerArrives) {
  // Reserve a port the same way, then race: the client starts its rollout
  // against nothing (ECONNREFUSED) while the server binds ~80ms later —
  // the transient-connect backoff must absorb the gap.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);
  ::close(probe);

  ServerConfig net_cfg;
  net_cfg.metrics_prefix = "net_lateserver";
  net_cfg.port = port;
  Harness h(net_cfg);
  const auto want = direct_rollout(*h.sim, 4);

  ClientConfig cfg;
  cfg.port = port;
  cfg.busy_max_retries = 10;
  cfg.busy_backoff_ms = 20.0;
  cfg.busy_backoff_max_ms = 100.0;
  ClientResult result;
  std::thread early_client([&] {
    Client client(cfg);
    result = client.rollout(small_request(*h.sim, 4));
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ASSERT_TRUE(h.start());
  early_client.join();

  ASSERT_TRUE(result.ok()) << result.transport_error << result.error;
  EXPECT_GE(result.connect_retries, 1);  // it really did race the bind
  expect_bitwise_equal(result.frames, want);
}

// ---- Connection-death regressions (fault proxy) ----------------------------

TEST(NetServer, ServerDeathBetweenHeaderAndBodyIsRetriedOnAFreshConnection) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t10";
  Harness h(cfg);
  ASSERT_TRUE(h.start());
  const auto want = direct_rollout(*h.sim, 4);

  FaultProxy proxy(h.server->port());
  ASSERT_TRUE(proxy.start());
  // First connection: the reply stream dies exactly one header in — the
  // client holds a clean frame HEADER whose body never arrives, the shape
  // of a server crashing mid-write. Retry connections pass clean.
  proxy.set_script_fn([](int conn) {
    FaultScript s;
    if (conn == 0) s.s2c = {FaultAction::truncate(kHeaderBytes)};
    return s;
  });

  ClientConfig through;
  through.port = proxy.port();
  through.busy_max_retries = 3;
  through.busy_backoff_ms = 1.0;
  Client client(through);
  const ClientResult r = client.rollout(small_request(*h.sim, 4));
  ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
  // No complete reply frame ever arrived, so the loss was reply-less and
  // the idempotent request was resent on a fresh connection.
  EXPECT_GE(r.connect_retries, 1);
  EXPECT_GE(proxy.connections(), 2);
  expect_bitwise_equal(r.frames, want);

  proxy.stop();
  h.server->stop();
}

TEST(NetServer, ListeningButDeadPeerIsRetriedUntilItRecovers) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t11";
  Harness h(cfg);
  ASSERT_TRUE(h.start());
  const auto want = direct_rollout(*h.sim, 3);

  FaultProxy proxy(h.server->port());
  ASSERT_TRUE(proxy.start());
  // The first two connections are accepted and instantly dropped: a live
  // listener fronting a dead peer (crashed worker, half-restarted box).
  // connect() succeeds, so only the reply-less-death retry path can save
  // the request — the connect-refused path never triggers.
  proxy.set_script_fn([](int conn) {
    FaultScript s;
    s.close_on_accept = conn < 2;
    return s;
  });

  ClientConfig through;
  through.port = proxy.port();
  through.busy_max_retries = 5;
  through.busy_backoff_ms = 1.0;
  Client client(through);
  const ClientResult r = client.rollout(small_request(*h.sim, 3));
  ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
  EXPECT_GE(r.connect_retries, 2);  // one per dropped connection
  EXPECT_GE(proxy.connections(), 3);
  expect_bitwise_equal(r.frames, want);

  proxy.stop();
  h.server->stop();
}

TEST(NetServer, StaleConnectionAfterBackendRestartReconnects) {
  ServerConfig cfg;
  cfg.metrics_prefix = "net_t12";
  Harness h(cfg);
  ASSERT_TRUE(h.start());
  const auto want = direct_rollout(*h.sim, 3);

  // First proxy instance on an ephemeral port the client will keep using.
  auto proxy = std::make_unique<FaultProxy>(h.server->port());
  ASSERT_TRUE(proxy->start());
  const int fixed_port = proxy->port();

  ClientConfig through;
  through.port = fixed_port;
  through.busy_max_retries = 5;
  through.busy_backoff_ms = 5.0;
  Client client(through);
  ASSERT_TRUE(client.rollout(small_request(*h.sim, 3)).ok());

  // "Backend restart": the instance dies — severing the client's pooled
  // connection — and a NEW instance binds the same port.
  proxy->stop();
  proxy = std::make_unique<FaultProxy>(h.server->port());
  ASSERT_TRUE(proxy->start(fixed_port));

  // The client still holds the stale socket. The resend path must notice
  // the dead connection, re-resolve the address, and reach the new
  // instance — not fail on the cached fd forever.
  const ClientResult r = client.rollout(small_request(*h.sim, 3));
  ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
  expect_bitwise_equal(r.frames, want);

  proxy->stop();
  h.server->stop();
}

}  // namespace
}  // namespace gns::net
