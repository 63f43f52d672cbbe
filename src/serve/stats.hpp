#pragma once

/// \file stats.hpp
/// ServerStats: counters + latency histograms for the serving subsystem.
///
/// The instruments live in the shared obs::MetricsRegistry (names
/// `<prefix>.submitted`, `<prefix>.total_ms`, ...), so serving metrics
/// appear in the same unified dump (GNS_METRICS_FILE) as the simulation
/// metrics. ServerStats keeps cached handles for the hot path and zeroes
/// its prefix on construction — instances sharing a prefix therefore must
/// not coexist (give a second live scheduler its own stats_prefix).
///
/// Snapshots are consistent copies; CSV/JSON dumps are built from
/// snapshots so they can be written while the server is hot. The JSON
/// field names (p50/p95/p99 per histogram) are stable.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/job.hpp"
#include "util/histogram.hpp"

namespace gns::serve {

/// Consistent copy of the server counters at one instant.
struct StatsSnapshot {
  std::uint64_t submitted = 0;        ///< accepted into the queue
  std::uint64_t completed = 0;        ///< resolved Ok
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;           ///< ExecutionError + ModelNotFound
  std::uint64_t shut_down = 0;
  int queue_depth = 0;      ///< current queued jobs
  int peak_queue_depth = 0;

  Histogram total_ms{1e-3, 1.15, 200};  ///< submit-to-resolve, Ok jobs
  Histogram queue_ms{1e-3, 1.15, 200};  ///< queue wait, Ok jobs
  Histogram exec_ms{1e-3, 1.15, 200};   ///< worker execution, Ok jobs
  /// Jobs per worker dispatch (1 at max_batch 1; up to max_batch when
  /// coalescing) — the utilization signal of batched serving.
  Histogram batch_size{1.0, 1.15, 40};

  /// Ok jobs per second over the given wall-clock window.
  [[nodiscard]] double throughput(double wall_seconds) const {
    return wall_seconds > 0.0
               ? static_cast<double>(completed) / wall_seconds
               : 0.0;
  }
};

class ServerStats {
 public:
  /// Binds (and zeroes) `<prefix>.*` instruments in `registry`; null means
  /// the process-global registry.
  explicit ServerStats(std::string prefix = "serve",
                       obs::MetricsRegistry* registry = nullptr);

  /// A job was accepted into the queue at the given (post-push) depth.
  void on_submitted(int queue_depth);

  /// A worker dispatched `batch_size` coalesced jobs as one execution
  /// (1 at max_batch 1).
  void on_dispatch(int batch_size);

  /// A job resolved with the given result, a submit rejected before
  /// queueing included; depth is the queue size after the job left it
  /// (or at the rejection). Ok jobs additionally feed the `<prefix>.phase.*_us`
  /// histograms from result.phases (zero-valued phases are skipped so a
  /// cache-less scheduler doesn't flood cache_us with zeros).
  void on_resolved(const RolloutResult& result, int queue_depth);

  /// The net front-end's phase contributions, recorded after the reply is
  /// encoded (serialize) and flushed to the socket (write). Separate from
  /// on_resolved because both happen after the scheduler resolves the job.
  void on_serialize(double serialize_us);
  void on_write(double write_us);

  [[nodiscard]] StatsSnapshot snapshot() const;

  /// Latency CDF of Ok jobs as CSV (columns: upper_ms, count,
  /// cumulative_frac) for scripts/plot_results.py.
  void write_latency_csv(const std::string& path) const;

  /// All counters + p50/p95/p99 of each histogram as a JSON object.
  /// `extra` entries (e.g. {"workers","4"}) are spliced in verbatim as
  /// additional number-valued fields.
  [[nodiscard]] std::string to_json(
      const std::vector<std::pair<std::string, double>>& extra = {}) const;
  void write_json(
      const std::string& path,
      const std::vector<std::pair<std::string, double>>& extra = {}) const;

 private:
  obs::Counter& submitted_;
  obs::Counter& completed_;
  obs::Counter& rejected_queue_full_;
  obs::Counter& deadline_exceeded_;
  obs::Counter& cancelled_;
  obs::Counter& failed_;
  obs::Counter& shut_down_;
  obs::Gauge& queue_depth_;
  obs::Gauge& peak_queue_depth_;
  obs::HistogramMetric& total_ms_;
  obs::HistogramMetric& queue_ms_;
  obs::HistogramMetric& exec_ms_;
  obs::HistogramMetric& batch_size_;
  // Per-phase latency (`<prefix>.phase.*_us`, microseconds) — the
  // histogram form of PhaseTimeline, one instrument per pipeline stage.
  obs::HistogramMetric& phase_decode_us_;
  obs::HistogramMetric& phase_cache_us_;
  obs::HistogramMetric& phase_queue_us_;
  obs::HistogramMetric& phase_batch_wait_us_;
  obs::HistogramMetric& phase_compute_us_;
  obs::HistogramMetric& phase_serialize_us_;
  obs::HistogramMetric& phase_write_us_;
};

}  // namespace gns::serve
