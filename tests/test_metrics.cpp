// Histogram + ServerStats metrics layer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/stats.hpp"
#include "util/histogram.hpp"

namespace gns {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, TracksExactMinMaxMeanSum) {
  Histogram h;
  h.add(1.0);
  h.add(2.0);
  h.add(7.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  // Uniform 1..1000: quantile(q) should be ~q*1000 within the geometric
  // bucket width (growth 1.15 => <= 15% relative error).
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  for (double q : {0.5, 0.95, 0.99}) {
    const double estimate = h.quantile(q);
    const double exact = q * 1000.0;
    EXPECT_NEAR(estimate, exact, 0.16 * exact) << "q=" << q;
  }
  // Extremes clamp to the exact observed range.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Histogram, ConstantSamplesGiveThatConstant) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.add(42.0);
  // All mass in one bucket; clamping to [min,max] makes quantiles exact.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 42.0);
}

TEST(Histogram, ClampsOutOfRangeSamples) {
  Histogram h(1e-3, 1.15, 16);  // deliberately tiny range
  h.add(1e-9);                  // below the first bucket
  h.add(1e12);                  // beyond the last bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
}

TEST(Histogram, MergeAccumulates) {
  Histogram a, b;
  for (int i = 1; i <= 50; ++i) a.add(static_cast<double>(i));
  for (int i = 51; i <= 100; ++i) b.add(static_cast<double>(i));
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  EXPECT_NEAR(a.quantile(0.5), 50.0, 10.0);
}

TEST(Histogram, EmptyQuantilesAreZeroAtEveryQ) {
  Histogram h;
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) EXPECT_EQ(h.quantile(q), 0.0);
}

TEST(Histogram, SingleSampleDominatesEveryQuantile) {
  Histogram h;
  h.add(3.25);
  EXPECT_EQ(h.count(), 1u);
  // With one sample, min == max == the sample: clamping makes every
  // quantile exact regardless of which bucket it landed in.
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 3.25) << "q=" << q;
}

TEST(MetricsRegistry, PrometheusExpositionIsSanitizedAndComplete) {
  obs::MetricsRegistry registry;
  registry.counter("sys.comp-x.events").add(3);
  registry.gauge("sys.depth").set(7.5);
  auto& h = registry.histogram("sys.lat_ms");
  h.add(1.0);
  h.add(2.0);

  const std::string out = registry.to_prometheus();
  // Names sanitize to [a-zA-Z0-9_]; HELP keeps the original spelling.
  EXPECT_NE(out.find("# HELP sys_comp_x_events sys.comp-x.events\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE sys_comp_x_events counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("sys_comp_x_events 3\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE sys_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("sys_depth 7.5\n"), std::string::npos);
  // Histograms export as summaries: three quantiles + _sum + _count.
  EXPECT_NE(out.find("# TYPE sys_lat_ms summary\n"), std::string::npos);
  EXPECT_NE(out.find("sys_lat_ms{quantile=\"0.5\"} "), std::string::npos);
  EXPECT_NE(out.find("sys_lat_ms{quantile=\"0.95\"} "), std::string::npos);
  EXPECT_NE(out.find("sys_lat_ms{quantile=\"0.99\"} "), std::string::npos);
  EXPECT_NE(out.find("sys_lat_ms_sum 3\n"), std::string::npos);
  EXPECT_NE(out.find("sys_lat_ms_count 2\n"), std::string::npos);
}

TEST(MetricsRegistry, ResetPrefixRacesConcurrentWritersSafely) {
  // A scrape-triggered reset_prefix must never corrupt instruments that
  // hot threads are writing at that instant: handles stay valid, values
  // stay in [0, total-written]. TSan/ASan CI enforces the memory half.
  obs::MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kWritesPerWriter = 20'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      auto& counter =
          registry.counter("race.c" + std::to_string(w % 2));
      auto& histogram =
          registry.histogram("race.h" + std::to_string(w % 2));
      auto& gauge = registry.gauge("race.g");
      for (int i = 0; i < kWritesPerWriter; ++i) {
        counter.add();
        histogram.add(static_cast<double>(i % 100) + 0.5);
        gauge.set(static_cast<double>(i));
      }
    });
  }
  std::thread resetter([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      registry.reset_prefix("race.");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  resetter.join();

  // One final reset gives a deterministic end state; instruments must
  // still be alive and writable after the storm.
  registry.reset_prefix("race.");
  EXPECT_EQ(registry.counter("race.c0").value(), 0u);
  EXPECT_EQ(registry.histogram("race.h0").snapshot().count(), 0u);
  registry.counter("race.c0").add(5);
  EXPECT_EQ(registry.counter("race.c0").value(), 5u);
}

TEST(ServerStats, PhaseHistogramsSkipZeroValuedPhases) {
  obs::MetricsRegistry registry;
  serve::ServerStats stats("p", &registry);

  serve::RolloutResult ok;
  ok.status = serve::JobStatus::Ok;
  ok.total_ms = 5.0;
  ok.phases.compute_us = 4000.0;
  ok.phases.queue_us = 900.0;
  // decode/cache/batch_wait left 0: "didn't happen" must not flood the
  // low buckets of those histograms.
  stats.on_resolved(ok, 0);
  stats.on_serialize(120.0);
  stats.on_write(80.0);

  EXPECT_EQ(registry.histogram("p.phase.compute_us").snapshot().count(), 1u);
  EXPECT_EQ(registry.histogram("p.phase.queue_us").snapshot().count(), 1u);
  EXPECT_EQ(registry.histogram("p.phase.serialize_us").snapshot().count(),
            1u);
  EXPECT_EQ(registry.histogram("p.phase.write_us").snapshot().count(), 1u);
  EXPECT_EQ(registry.histogram("p.phase.decode_us").snapshot().count(), 0u);
  EXPECT_EQ(registry.histogram("p.phase.cache_us").snapshot().count(), 0u);
  EXPECT_EQ(registry.histogram("p.phase.batch_wait_us").snapshot().count(),
            0u);
}

TEST(ServerStats, CountsByOutcome) {
  serve::ServerStats stats;
  stats.on_submitted(1);
  stats.on_submitted(2);

  serve::RolloutResult full;
  full.status = serve::JobStatus::QueueFull;
  stats.on_resolved(full, 2);

  serve::RolloutResult ok;
  ok.status = serve::JobStatus::Ok;
  ok.total_ms = 5.0;
  ok.queue_ms = 1.0;
  ok.exec_ms = 4.0;
  stats.on_resolved(ok, 1);

  serve::RolloutResult late;
  late.status = serve::JobStatus::DeadlineExceeded;
  stats.on_resolved(late, 0);

  const serve::StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.submitted, 2u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.rejected_queue_full, 1u);
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.peak_queue_depth, 2);
  EXPECT_EQ(snap.total_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(snap.total_ms.max(), 5.0);
  EXPECT_DOUBLE_EQ(snap.throughput(2.0), 0.5);
}

TEST(ServerStats, JsonAndCsvDumps) {
  serve::ServerStats stats;
  serve::RolloutResult ok;
  ok.status = serve::JobStatus::Ok;
  ok.total_ms = 10.0;
  ok.queue_ms = 2.0;
  ok.exec_ms = 8.0;
  stats.on_resolved(ok, 0);

  const std::string json = stats.to_json({{"workers", 4.0}});
  EXPECT_NE(json.find("\"completed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"total_ms_p50\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\": 4"), std::string::npos);

  const std::string path = "test_metrics_latency.csv";
  stats.write_latency_csv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "upper_ms,count,cumulative_frac");
  std::string row;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, row)));
  in.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gns
