#include "serve/stats.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace gns::serve {

namespace {
obs::MetricsRegistry& resolve(obs::MetricsRegistry* registry) {
  return registry != nullptr ? *registry : obs::MetricsRegistry::global();
}
}  // namespace

ServerStats::ServerStats(std::string prefix, obs::MetricsRegistry* registry)
    : submitted_(resolve(registry).counter(prefix + ".submitted")),
      completed_(resolve(registry).counter(prefix + ".completed")),
      rejected_queue_full_(
          resolve(registry).counter(prefix + ".rejected_queue_full")),
      deadline_exceeded_(
          resolve(registry).counter(prefix + ".deadline_exceeded")),
      cancelled_(resolve(registry).counter(prefix + ".cancelled")),
      failed_(resolve(registry).counter(prefix + ".failed")),
      shut_down_(resolve(registry).counter(prefix + ".shut_down")),
      queue_depth_(resolve(registry).gauge(prefix + ".queue_depth")),
      peak_queue_depth_(
          resolve(registry).gauge(prefix + ".peak_queue_depth")),
      total_ms_(resolve(registry).histogram(prefix + ".total_ms")),
      queue_ms_(resolve(registry).histogram(prefix + ".queue_ms")),
      exec_ms_(resolve(registry).histogram(prefix + ".exec_ms")),
      batch_size_(resolve(registry).histogram(prefix + ".batch_size",
                                              /*min_value=*/1.0,
                                              /*growth=*/1.15,
                                              /*buckets=*/40)),
      phase_decode_us_(
          resolve(registry).histogram(prefix + ".phase.decode_us")),
      phase_cache_us_(resolve(registry).histogram(prefix + ".phase.cache_us")),
      phase_queue_us_(resolve(registry).histogram(prefix + ".phase.queue_us")),
      phase_batch_wait_us_(
          resolve(registry).histogram(prefix + ".phase.batch_wait_us")),
      phase_compute_us_(
          resolve(registry).histogram(prefix + ".phase.compute_us")),
      phase_serialize_us_(
          resolve(registry).histogram(prefix + ".phase.serialize_us")),
      phase_write_us_(
          resolve(registry).histogram(prefix + ".phase.write_us")) {
  // A fresh server starts from zero even when an earlier instance used the
  // same prefix (schedulers are built sequentially in benches/tests).
  resolve(registry).reset_prefix(prefix + ".");
}

void ServerStats::on_submitted(int queue_depth) {
  submitted_.add();
  queue_depth_.set(queue_depth);
  peak_queue_depth_.update_max(queue_depth);
}

void ServerStats::on_dispatch(int batch_size) {
  batch_size_.add(static_cast<double>(batch_size));
}

void ServerStats::on_serialize(double serialize_us) {
  if (serialize_us > 0.0) phase_serialize_us_.add(serialize_us);
}

void ServerStats::on_write(double write_us) {
  if (write_us > 0.0) phase_write_us_.add(write_us);
}

void ServerStats::on_resolved(const RolloutResult& result, int queue_depth) {
  queue_depth_.set(queue_depth);
  switch (result.status) {
    case JobStatus::Ok:
      completed_.add();
      total_ms_.add(result.total_ms);
      queue_ms_.add(result.queue_ms);
      exec_ms_.add(result.exec_ms);
      // Skip zero-valued phases: "did not happen" (no cache, cache hit)
      // would otherwise dominate the low buckets and flatten percentiles.
      if (result.phases.decode_us > 0.0)
        phase_decode_us_.add(result.phases.decode_us);
      if (result.phases.cache_us > 0.0)
        phase_cache_us_.add(result.phases.cache_us);
      if (result.phases.queue_us > 0.0)
        phase_queue_us_.add(result.phases.queue_us);
      if (result.phases.batch_wait_us > 0.0)
        phase_batch_wait_us_.add(result.phases.batch_wait_us);
      if (result.phases.compute_us > 0.0)
        phase_compute_us_.add(result.phases.compute_us);
      break;
    case JobStatus::DeadlineExceeded:
      deadline_exceeded_.add();
      break;
    case JobStatus::Cancelled:
      cancelled_.add();
      break;
    case JobStatus::ShutDown:
      shut_down_.add();
      break;
    case JobStatus::QueueFull:
      rejected_queue_full_.add();
      break;
    case JobStatus::ModelNotFound:
    case JobStatus::ExecutionError:
    case JobStatus::BackendLost:
      failed_.add();
      break;
  }
}

StatsSnapshot ServerStats::snapshot() const {
  StatsSnapshot snap;
  snap.submitted = submitted_.value();
  snap.completed = completed_.value();
  snap.rejected_queue_full = rejected_queue_full_.value();
  snap.deadline_exceeded = deadline_exceeded_.value();
  snap.cancelled = cancelled_.value();
  snap.failed = failed_.value();
  snap.shut_down = shut_down_.value();
  snap.queue_depth = static_cast<int>(queue_depth_.value());
  snap.peak_queue_depth = static_cast<int>(peak_queue_depth_.value());
  snap.total_ms = total_ms_.snapshot();
  snap.queue_ms = queue_ms_.snapshot();
  snap.exec_ms = exec_ms_.snapshot();
  snap.batch_size = batch_size_.snapshot();
  return snap;
}

void ServerStats::write_latency_csv(const std::string& path) const {
  const StatsSnapshot snap = snapshot();
  std::ofstream out(path);
  out << "upper_ms,count,cumulative_frac\n";
  const double total =
      snap.total_ms.count() == 0
          ? 1.0
          : static_cast<double>(snap.total_ms.count());
  std::uint64_t cumulative = 0;
  for (int b = 0; b < snap.total_ms.num_buckets(); ++b) {
    const std::uint64_t c = snap.total_ms.bucket_count(b);
    if (c == 0) continue;
    cumulative += c;
    out << snap.total_ms.bucket_upper(b) << ',' << c << ','
        << static_cast<double>(cumulative) / total << '\n';
  }
}

namespace {

void json_field(std::ostringstream& os, const char* key, double value,
                bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "  \"" << key << "\": " << value;
}

void json_percentiles(std::ostringstream& os, const char* prefix,
                      const Histogram& h, bool& first) {
  std::string base(prefix);
  json_field(os, (base + "_p50").c_str(), h.quantile(0.50), first);
  json_field(os, (base + "_p95").c_str(), h.quantile(0.95), first);
  json_field(os, (base + "_p99").c_str(), h.quantile(0.99), first);
  json_field(os, (base + "_mean").c_str(), h.mean(), first);
  json_field(os, (base + "_max").c_str(), h.max(), first);
}

}  // namespace

std::string ServerStats::to_json(
    const std::vector<std::pair<std::string, double>>& extra) const {
  const StatsSnapshot snap = snapshot();
  std::ostringstream os;
  os.precision(10);
  os << "{\n";
  bool first = true;
  json_field(os, "submitted", static_cast<double>(snap.submitted), first);
  json_field(os, "completed", static_cast<double>(snap.completed), first);
  json_field(os, "rejected_queue_full",
             static_cast<double>(snap.rejected_queue_full), first);
  json_field(os, "deadline_exceeded",
             static_cast<double>(snap.deadline_exceeded), first);
  json_field(os, "cancelled", static_cast<double>(snap.cancelled), first);
  json_field(os, "failed", static_cast<double>(snap.failed), first);
  json_field(os, "shut_down", static_cast<double>(snap.shut_down), first);
  json_field(os, "peak_queue_depth",
             static_cast<double>(snap.peak_queue_depth), first);
  json_percentiles(os, "total_ms", snap.total_ms, first);
  json_percentiles(os, "queue_ms", snap.queue_ms, first);
  json_percentiles(os, "exec_ms", snap.exec_ms, first);
  json_percentiles(os, "batch_size", snap.batch_size, first);
  for (const auto& [key, value] : extra)
    json_field(os, key.c_str(), value, first);
  os << "\n}\n";
  return os.str();
}

void ServerStats::write_json(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& extra) const {
  std::ofstream out(path);
  out << to_json(extra);
}

}  // namespace gns::serve
