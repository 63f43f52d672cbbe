#include "router/router.hpp"

#include <algorithm>
#include <set>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace gns::router {

namespace {

/// RouterConfig's client-side fields; the rest keep the server's defaults.
net::ServerConfig server_config(const RouterConfig& config) {
  net::ServerConfig server;
  server.host = config.host;
  server.port = config.port;
  server.max_connections = config.max_connections;
  server.idle_timeout_ms = config.client_idle_timeout_ms;
  server.drain_timeout_ms = config.drain_timeout_ms;
  server.metrics_prefix = config.metrics_prefix;
  return server;
}

obs::Counter& counter(const RouterConfig& config, const char* name) {
  return obs::MetricsRegistry::global().counter(config.metrics_prefix + "." +
                                                name);
}

}  // namespace

struct Router::Proxy {
  std::uint64_t id = 0;
  serve::RolloutRequest request;
  std::function<void()> on_resolved;
  std::promise<serve::RolloutResult> promise;
  std::int64_t started_ns = 0;  ///< for the router.proxy span

  // Guarded by Router::mutex_. `result` holds the current attempt's frames,
  // and the final result once the proxy has left proxies_.
  serve::RolloutResult result;
  std::vector<Backend*> tried;
  PickOutcome outcome = PickOutcome::AllDown;
  bool saw_busy = false;
  bool saw_failure = false;
  bool saw_incapable = false;
  // The current attempt; it has streamed once result.frames is not empty.
  Backend* backend = nullptr;  ///< holds one in-flight slot while set
  std::shared_ptr<BackendConn> conn;
  std::uint64_t wire_id = 0;
};

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      server_(*this, server_config(config_)),
      requests_(counter(config_, "requests")),
      retries_(counter(config_, "retries")),
      failovers_(counter(config_, "failovers")),
      evictions_(counter(config_, "evictions")),
      readmissions_(counter(config_, "readmissions")),
      backend_lost_(counter(config_, "backend_lost")),
      busy_rejected_(counter(config_, "busy_rejected")),
      probes_(counter(config_, "probes")),
      backends_healthy_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".backends_healthy")) {
  GNS_CHECK_MSG(!config_.backends.empty(),
                "Router needs at least one backend address");
  if (config_.max_attempts <= 0)
    config_.max_attempts = static_cast<int>(config_.backends.size());
  for (const BackendAddress& address : config_.backends)
    backends_.push_back(
        std::make_unique<Backend>(address, config_.tuning, tasks_));
}

Router::~Router() { stop(); }

bool Router::start() {
  if (!server_.start()) return false;
  {
    // First sweep a full interval after start: placement is optimistic
    // about un-probed backends anyway, and a quiet startup keeps tests (and
    // operators' logs) deterministic.
    std::lock_guard<std::mutex> lock(mutex_);
    arm_sweep_locked(Clock::now() + exec::from_ms(config_.probe_interval_ms));
  }
  GNS_INFO("router: fronting " << backends_.size() << " backends on "
                               << config_.host << ":" << server_.port());
  return true;
}

void Router::stop() {
  std::call_once(stop_once_, [this] {
    if (!server_.running()) return;
    GNS_INFO("router: draining (stop admitting, finish proxied requests)");
    // 1. The server's drain: in-flight proxies finish, up to
    //    drain_timeout_ms; it cancels the rest.
    server_.stop();
    // 2. No further sweep.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
      if (sweep_timer_ != 0 &&
          exec::Executor::global().cancel_timer(sweep_timer_))
        tasks_.done();
      sweep_timer_ = 0;
    }
    // 3. Wait for the router's own callbacks, then close the pools.
    tasks_.wait_idle();
    for (const auto& backend : backends_) backend->close_idle();
    GNS_INFO("router: drained and stopped");
  });
}

std::vector<BackendSnapshot> Router::snapshot() const {
  std::vector<BackendSnapshot> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) {
    BackendSnapshot snap;
    snap.address = backend->address();
    snap.health = backend->health();
    snap.capabilities = backend->capabilities();
    snap.inflight = backend->inflight();
    out.push_back(std::move(snap));
  }
  return out;
}

serve::JobTicket Router::submit(serve::RolloutRequest request,
                                std::function<void()> on_resolved) {
  auto proxy = std::make_shared<Proxy>();
  proxy->request = std::move(request);
  proxy->on_resolved = std::move(on_resolved);
  proxy->started_ns = obs::trace_now_ns();
  serve::JobTicket ticket;
  ticket.result = proxy->promise.get_future();
  requests_.add();
  advance(proxy, [&] {
    ticket.id = proxy->id = next_proxy_++;
    proxies_.emplace(proxy->id, proxy);
    return place_locked(proxy);
  });
  return ticket;
}

bool Router::cancel(std::uint64_t job_id) {
  std::shared_ptr<Proxy> proxy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = proxies_.find(job_id);
    if (it == proxies_.end()) return false;
    proxy = it->second;
    if (proxy->conn != nullptr) proxy->conn->close();
    end_attempt_locked(*proxy);
    serve::RolloutResult result;
    result.status = serve::JobStatus::Cancelled;
    result.trace_id = proxy->request.trace_id;
    finish_locked(*proxy, std::move(result));
  }
  publish(*proxy);
  return true;
}

serve::ServiceCapabilities Router::capabilities() const {
  // The healthy fleet's union of models, summed capacity and workers.
  std::set<std::string> models;
  long capacity = 0;
  long workers = 0;
  for (const auto& backend : backends_) {
    if (backend->health() == BackendHealth::Evicted) continue;
    const BackendCapabilities caps = backend->capabilities();
    models.insert(caps.models.begin(), caps.models.end());
    capacity += backend->placement_capacity();
    workers += caps.workers;
  }
  serve::ServiceCapabilities out;
  out.workers = static_cast<int>(std::min<long>(workers, 1L << 20));
  out.models.assign(models.begin(), models.end());
  out.max_inflight = static_cast<int>(std::min<long>(capacity, 1L << 20));
  return out;
}

void Router::advance(const std::shared_ptr<Proxy>& proxy,
                     const std::function<bool()>& step) {
  bool ended = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ended = step();
  }
  if (ended) publish(*proxy);
}

void Router::publish(Proxy& proxy) {
  obs::record_manual_span("router.proxy", proxy.started_ns,
                          obs::trace_now_ns(), proxy.request.trace_id);
  proxy.promise.set_value(std::move(proxy.result));
  if (proxy.on_resolved) proxy.on_resolved();
}

bool Router::place_locked(const std::shared_ptr<Proxy>& proxy) {
  Proxy& p = *proxy;
  Backend* backend =
      p.tried.size() < static_cast<std::size_t>(config_.max_attempts)
          ? pick_backend_locked(p.request.model, p.tried, p.outcome)
          : nullptr;
  if (backend != nullptr) {
    p.tried.push_back(backend);
    p.backend = backend;
    if (std::shared_ptr<BackendConn> conn = backend->take_idle())
      return send_locked(proxy, conn);
    p.conn = backend->dial(
        config_.tuning.hello_timeout_ms,
        [this, proxy](const std::shared_ptr<BackendConn>& conn,
                      const std::string& error) {
          advance(proxy, [&] {
            if (proxy->conn == conn && error.empty() && conn->reusable())
              return send_locked(proxy, conn);
            conn->close();  // cancelled meanwhile, or no usable HELLO
            return proxy->conn == conn &&
                   on_lost_locked(proxy, error.empty() ? "closed after hello"
                                                       : error);
          });
        });
    return false;
  }

  serve::RolloutResult result;
  result.trace_id = p.request.trace_id;
  if ((p.outcome == PickOutcome::NoBackendForModel || p.saw_incapable) &&
      !p.saw_busy && !p.saw_failure) {
    // Mirror what a direct server answers, so clients have one code path.
    result.status = serve::JobStatus::ModelNotFound;
    result.error = "no backend serves model '" + p.request.model + "'";
  } else {
    busy_rejected_.add();
    result.status = serve::JobStatus::QueueFull;
    result.error = p.saw_busy ? "every capable backend is at capacity"
                   : p.saw_failure
                       ? "no backend could serve the request; retry"
                       : "no healthy backend available";
  }
  return finish_locked(p, std::move(result));
}

bool Router::send_locked(const std::shared_ptr<Proxy>& proxy,
                         const std::shared_ptr<BackendConn>& conn) {
  Proxy& p = *proxy;
  // Placement on a never-contacted backend is optimistic; the handshake
  // has run by now, so the model claim is checkable.
  if (!p.backend->serves(p.request.model)) {
    p.backend->checkin(conn);
    end_attempt_locked(p);
    p.saw_incapable = true;
    return place_locked(proxy);
  }
  p.conn = conn;
  p.wire_id = conn->next_request_id();
  p.result.frames.clear();
  conn->exchange(
      net::encode_rollout_request(p.wire_id, p.request),
      config_.tuning.io_timeout_ms,
      [this, proxy, conn](const net::FrameView& frame) {
        bool more = false;
        advance(proxy, [&] {
          return proxy->conn == conn && on_reply_locked(proxy, frame, more);
        });
        return !more;
      },
      [this, proxy, conn](const std::string& why) {
        advance(proxy, [&] {
          return proxy->conn == conn && on_lost_locked(proxy, why);
        });
      });
  return false;
}

bool Router::on_reply_locked(const std::shared_ptr<Proxy>& proxy,
                             const net::FrameView& frame, bool& more) {
  Proxy& p = *proxy;
  Backend& backend = *p.backend;
  const std::shared_ptr<BackendConn> conn = p.conn;
  std::string parse_error;
  net::WireChunk chunk;
  net::WireStatus status;
  net::WireError error;
  // Chunks arrive in order, each frame as long as a window frame, and no
  // more frames than steps: the relayed result is then one the server can
  // re-chunk, and its size is the request's.
  const std::size_t frame_len =
      p.request.window.empty() ? 0 : p.request.window.front().size();
  const bool chunked =
      frame.type == net::MessageType::RolloutChunk &&
      net::decode_rollout_chunk(frame, chunk, parse_error) &&
      chunk.first_frame == p.result.frames.size() &&
      chunk.frame_len == frame_len && chunk.num_frames() > 0 &&
      p.result.frames.size() + chunk.num_frames() <=
          static_cast<std::size_t>(std::max(0, p.request.steps));
  const bool finished = frame.type == net::MessageType::StatusReply &&
                        net::decode_status_reply(frame, status, parse_error) &&
                        status.total_frames == p.result.frames.size();
  const bool rejected = frame.type == net::MessageType::ErrorReply &&
                        net::decode_error_reply(frame, error, parse_error);
  if (frame.request_id != p.wire_id || !(chunked || finished || rejected)) {
    conn->close();
    return on_lost_locked(
        proxy, "bad reply from backend: " +
                   (parse_error.empty() ? "unexpected frame" : parse_error));
  }
  if (chunked) {
    for (std::uint32_t f = 0; f < chunk.num_frames(); ++f) {
      const auto first = chunk.data.begin() +
                         static_cast<std::ptrdiff_t>(f) * chunk.frame_len;
      p.result.frames.emplace_back(first, first + chunk.frame_len);
    }
    more = true;
    return false;
  }
  if (rejected && p.result.frames.empty() &&
      (error.code == net::NetError::Busy ||
       error.code == net::NetError::ShuttingDown)) {
    // Busy: alive, just full; keep the connection and only surface Busy
    // when every sibling is. ShuttingDown: stop placing on it.
    if (error.code == net::NetError::Busy) {
      backend.checkin(conn);
      p.saw_busy = true;
    } else {
      conn->close();
      backend.set_draining(true);
      p.saw_failure = true;
    }
    end_attempt_locked(p);
    retries_.add();
    return place_locked(proxy);
  }

  serve::RolloutResult result = std::move(p.result);
  if (finished) {
    backend.mark_healthy();
    result.status = status.status;
    result.error = std::move(status.error);
    result.queue_ms = status.queue_ms;
    result.exec_ms = status.exec_ms;
    result.total_ms = status.total_ms;
    result.trace_id = status.trace_id;
    result.cached = status.cached;
    result.cache_outcome = status.cache_outcome;
    result.phases = status.phases;
  } else {
    // Any other rejection is this request's answer: a stacked router's
    // BackendLost passes through, the rest fail the request.
    result.status = error.code == net::NetError::BackendLost
                        ? serve::JobStatus::BackendLost
                        : serve::JobStatus::ExecutionError;
    result.error = std::move(error.message);
    result.trace_id = p.request.trace_id;
  }
  backend.checkin(conn);
  end_attempt_locked(p);
  return finish_locked(p, std::move(result));
}

bool Router::on_lost_locked(const std::shared_ptr<Proxy>& proxy,
                            const std::string& why) {
  Proxy& p = *proxy;
  Backend& backend = *p.backend;
  evict_backend(backend, why);
  end_attempt_locked(p);
  if (p.result.frames.empty()) {
    // The failover everything above is for: nothing streamed, so a
    // sibling serves the request and the client never knows.
    failovers_.add();
    p.saw_failure = true;
    return place_locked(proxy);
  }
  // Past the first chunk the contract is a typed error, never a retry.
  backend_lost_.add();
  serve::RolloutResult result;
  result.status = serve::JobStatus::BackendLost;
  result.error = "backend " + backend.label() +
                 " died after its first chunk (" + why + "); not retried";
  result.trace_id = p.request.trace_id;
  return finish_locked(p, std::move(result));
}

void Router::end_attempt_locked(Proxy& proxy) {
  if (proxy.backend != nullptr) proxy.backend->add_inflight(-1);
  proxy.backend = nullptr;
  proxy.conn.reset();
}

bool Router::finish_locked(Proxy& proxy, serve::RolloutResult result) {
  if (proxies_.erase(proxy.id) == 0) return false;  // cancel() claimed it
  result.job_id = proxy.id;
  proxy.result = std::move(result);
  return true;
}

Backend* Router::pick_backend_locked(const std::string& model,
                                     const std::vector<Backend*>& exclude,
                                     PickOutcome& outcome) {
  Backend* best = nullptr;
  bool any_healthy = false;
  bool any_unavailable = false;  // capable but saturated or draining
  for (const auto& owned : backends_) {
    Backend* backend = owned.get();
    if (std::find(exclude.begin(), exclude.end(), backend) != exclude.end())
      continue;
    if (backend->health() == BackendHealth::Evicted) continue;
    any_healthy = true;
    if (backend->capabilities().draining) {
      any_unavailable = true;
      continue;
    }
    if (!backend->serves(model)) continue;
    if (backend->inflight() >= backend->placement_capacity()) {
      any_unavailable = true;
      continue;
    }
    if (best == nullptr || backend->inflight() < best->inflight())
      best = backend;
  }
  outcome = best != nullptr         ? PickOutcome::Picked
            : any_unavailable       ? PickOutcome::AllBusy
            : any_healthy           ? PickOutcome::NoBackendForModel
                                    : PickOutcome::AllDown;
  if (best != nullptr) best->add_inflight(1);
  return best;
}

void Router::evict_backend(Backend& backend, const std::string& why) {
  // Repeated failures while already evicted extend the backoff but count
  // as one eviction event.
  const bool was_evicted = backend.health() == BackendHealth::Evicted;
  backend.evict();
  if (!was_evicted) {
    evictions_.add();
    GNS_WARN("router: evicting backend " << backend.label() << ": " << why);
  }
  update_health_gauge();
}

void Router::update_health_gauge() {
  int healthy = 0;
  for (const auto& backend : backends_)
    if (backend->health() != BackendHealth::Evicted) ++healthy;
  backends_healthy_.set(healthy);
}

void Router::arm_sweep_locked(Clock::time_point due) {
  tasks_.add();
  sweep_timer_ = exec::Executor::global().schedule_at(due, [this] {
    sweep();
    tasks_.done();
  });
}

void Router::sweep() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sweep_timer_ = 0;
    sweep_started_ = Clock::now();
  }
  probe(0);
}

void Router::probe(std::size_t index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;  // stop() waits for this sweep: end it here
    if (index == backends_.size()) {
      update_health_gauge();
      const Clock::time_point due =
          sweep_started_ + exec::from_ms(config_.probe_interval_ms);
      arm_sweep_locked(std::max(Clock::now(), due));
      return;
    }
  }
  Backend& backend = *backends_[index];
  const bool evicted = backend.health() == BackendHealth::Evicted;
  if (evicted && !backend.readmit_due()) {
    probe(index + 1);
    return;
  }
  probes_.add();
  // A HELLO with a deadline on a pooled or fresh connection (an evicted
  // backend's pool is closed); its reply refreshes models and draining.
  Backend::HelloDone done = [this, &backend, evicted, index](
                                const std::shared_ptr<BackendConn>& conn,
                                const std::string& error) {
    if (!error.empty()) {
      evict_backend(backend, "probe: " + error);  // or extend its backoff
    } else {
      backend.mark_healthy();
      backend.checkin(conn);
      if (evicted) {
        readmissions_.add();
        GNS_INFO("router: re-admitted backend " << backend.label());
      }
    }
    probe(index + 1);
  };
  if (std::shared_ptr<BackendConn> conn = backend.take_idle())
    backend.hello(conn, config_.probe_timeout_ms, std::move(done));
  else
    backend.dial(config_.probe_timeout_ms, std::move(done));
}

}  // namespace gns::router
