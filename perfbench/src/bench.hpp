#pragma once

/// \file bench.hpp
/// Shared pieces of the perfbench workloads: the pinned Fig-3 scene and
/// model recipe, run options, result records, statistics, process probes
/// and the in-memory span recorder used by traced runs.
///
/// The benchmark measures the program from outside: it only calls public
/// functions of src/ and reads counters and histograms the program already
/// exports. Everything here is benchmark code, not program code.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/simulator.hpp"
#include "io/trajectory.hpp"
#include "mpm/scenes.hpp"

namespace perfbench {

// ---- Pinned Fig-3 recipe ---------------------------------------------------
//
// Copied from the repository's experiment benches on purpose: the scene,
// feature, model and training settings that define the workloads live in
// bench.cpp, so an edit to the experiment benches cannot silently change
// what is measured.

inline constexpr int kFrames = 60;  ///< MPM frames per Fig-3 trajectory

/// The Fig-3 granular scene (32 x 16 cells over a 1 x 0.5 m box).
[[nodiscard]] gns::mpm::GranularSceneParams fig3_scene();

/// The Fig-3 column-collapse MPM reference at friction angle `phi_deg`.
[[nodiscard]] gns::io::Trajectory fig3_reference(double phi_deg,
                                                 int frames = kFrames);

/// Trains the "columns" checkpoint with the pinned recipe and writes it to
/// `path`. Minutes of CPU: never called by a measured run.
void make_fixture(const std::string& path);

/// Loads the pinned checkpoint; throws when it is missing or corrupt.
[[nodiscard]] gns::core::LearnedSimulator load_fixture(
    const std::string& path);

// ---- Options and results ---------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string fixture;   ///< checkpoint path
  std::string out_dir;   ///< where traced runs write their span file
  bool setup_only = false;  ///< time the cold set-up, then stop
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  /// End-to-end metrics of the untraced phase (a traced run prints them
  /// beside its per-layer metrics).
  std::vector<Metric> reference;
  /// Extra numbers for the stamp line (not gated).
  std::vector<std::pair<std::string, double>> info;
  std::vector<std::string> errors;  ///< failed output checks

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Workload entry points: each fills `result` (metrics, counts, checks).
void run_rollout_fig3(const Options& opt, Result& result);
void run_mpm_column(const Options& opt, Result& result);
void run_serve_wire(const Options& opt, Result& result);

class Spans;
/// The ad layer, measured in rollout_fig3's traced run: Fig-5 iterations
/// (k = 30 taped rollout + backward) taken apart with spans; adds the ad.*
/// metrics and the inverse checks to `result`.
void measure_ad_layer(const Options& opt, Spans& spans, Result& result);

// ---- Statistics, clocks, seeds ---------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Bitwise equality of two frame lists (NaN-safe, -0.0 != +0.0).
[[nodiscard]] bool bitwise_equal(const std::vector<std::vector<double>>& a,
                                 const std::vector<std::vector<double>>& b);

/// Friction angle picked by the workload seed (uniform in [lo, hi],
/// deterministic per seed).
[[nodiscard]] double seeded_angle(std::uint64_t seed, double lo, double hi);

// ---- Set-up and the timed loop ---------------------------------------------
//
// The gated rate is wall clock, taken at the fast end of a run: the 90th
// percentile over its operations of steps / wall seconds. On the shared
// 4-vCPU VM the benchmark was built on, host stalls (idle vCPUs woken late
// under other tenants' load) made one 54-step rollout take anywhere from
// 1.1 s to over 2 s within a run, and a run's median moved with them. A
// stall only lengthens an operation, so the fast end moved much less (17%
// against 48% between quartiles over five rollout runs). CPU time per
// operation goes to the stamp, ungated: it sums all threads, so it would
// read a loss of parallelism as a gain.

/// Process CPU time, all threads, in seconds.
[[nodiscard]] double cpu_seconds();

/// Wall and process-CPU seconds of one piece of work.
struct Cost {
  double wall = 0.0;
  double cpu = 0.0;
};

template <typename F>
Cost measure(F&& work) {
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  work();
  return {seconds_since(t0), cpu_seconds() - c0};
}

/// Calls `op` until its CPU time stops falling: it ends at the first call
/// that is not more than 10% cheaper than the cheapest call before it, at
/// most 6 calls (10% stays clear of the noise of a single call). CPU time,
/// because host stalls make wall time rise and fall at random.
template <typename Op>
void warm_up(Op&& op) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 6; ++i) {
    const double t = measure(op).cpu;
    const bool falling = t < 0.9 * best;
    best = std::min(best, t);
    if (!falling) break;
  }
}

/// For --setup-only: records the cold set-up's process CPU seconds as
/// setup_s and returns true, so the workload stops there. run.py takes
/// setup_s as the median over three processes, each set up cold. CPU
/// seconds, because a set-up is mostly warm-up operations, whose wall time
/// doubled under host stalls.
[[nodiscard]] bool setup_only(const Options& opt, const Cost& setup,
                              Result& result);

/// Wall and CPU seconds of every operation of a timed phase.
struct OpTimes {
  std::vector<double> wall;
  std::vector<double> cpu;
};

/// Calls `op` until `seconds` of wall time have passed (at least once).
template <typename Op>
OpTimes timed_loop(double seconds, Op&& op) {
  OpTimes times;
  const auto t0 = Clock::now();
  do {
    const Cost c = measure(op);
    times.wall.push_back(c.wall);
    times.cpu.push_back(c.cpu);
  } while (seconds_since(t0) < seconds);
  return times;
}

/// The quantile of per-operation steps / wall second that is gated.
inline constexpr double kFastQuantile = 0.9;

/// What a timed phase measured, gated or not.
struct Phase {
  double steps_per_s = 0.0;      ///< fast-end wall rate (gated)
  double cpu_steps_per_s = 0.0;  ///< steps / CPU second (all threads)
  double p50_ms = 0.0;           ///< operation or request latency
  double p90_ms = 0.0;
  long samples = 0;              ///< operations or requests
};

/// Summary of a single-caller phase whose operations run `steps_per_op`
/// steps each.
[[nodiscard]] Phase summarize(const OpTimes& times, double steps_per_op);

/// The untraced end-to-end metrics (steps_per_s, peak_rss_mb, and setup_s
/// of this process's cold set-up) and the stamp's ungated figures.
void add_end_to_end(Result& result, const Phase& phase, const Cost& setup);

// ---- Process probes --------------------------------------------------------

/// Process high-water resident set (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();
/// Current resident set (VmRSS) in MiB.
[[nodiscard]] double current_rss_mb();

/// Host drift probes: a fixed CPU loop and a fixed memory-streaming loop,
/// timed in milliseconds. Same work on every call.
[[nodiscard]] double cpu_probe_ms();
[[nodiscard]] double mem_probe_ms();

/// Cumulative CPU ticks of the whole VM from /proc/stat: all of them, and
/// those stolen by the hypervisor for other guests.
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};
[[nodiscard]] HostTicks host_ticks();

// ---- Spans (traced runs only) ----------------------------------------------

/// In-memory span recorder: name, start, end, parent, trace id. Written
/// out once, when the run ends.
class Spans {
 public:
  /// Opens a span under the currently open one; returns its id. open and
  /// close nest on the benchmark's main thread.
  int open(const char* name);
  /// Closes span `id`, the innermost open one.
  void close(int id);
  /// Records a finished span measured by the caller, with no parent. Safe
  /// from any thread.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t trace_id);

  /// Durations in ms of every closed span with this name.
  [[nodiscard]] std::vector<double> durations_ms(
      const std::string& name) const;
  /// Per span named `parent_name`: its duration minus the time its direct
  /// children cover (the part no child accounts for), in ms.
  [[nodiscard]] std::vector<double> self_ms(
      const std::string& parent_name) const;

  /// Writes {"spans": [...], "program_trace": <obs Chrome trace>} to path.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::uint64_t trace_id;
  };
  std::mutex mutex_;  ///< guards spans_ and stack_ while recording
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span on a Spans recorder.
class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name)
      : spans_(spans), id_(spans.open(name)) {}
  ~SpanScope() { spans_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

[[nodiscard]] std::int64_t now_ns();

// ---- Program counters ------------------------------------------------------

/// Interpolated quantile of a program histogram (0 when empty).
[[nodiscard]] double histogram_quantile(const std::string& name, double q);
/// Adds core.gns.encode_ms / process_ms / decode_ms: p50 of the program's
/// own GnsModel::forward phase histograms.
void add_gns_phases(Result& result);
[[nodiscard]] double counter_value(const std::string& name);

/// Executor counters over a window: call begin() before, end() after.
class ExecWindow {
 public:
  void begin();
  /// Adds exec.busy_ratio, exec.tasks_per_step and exec.steal_ratio for
  /// the window; `steps` is the number of steps the window ran.
  void end(Result& result, double steps);

 private:
  std::uint64_t executed_ = 0;
  std::uint64_t stolen_ = 0;
  double busy_ = 0.0;
  Clock::time_point t0_;
};

/// Adds obs.trace_overhead_pct.steps_per_s: traced minus untraced, as a
/// percentage of the untraced value.
void add_trace_overhead(Result& result, const Phase& untraced,
                        const Phase& traced);

}  // namespace perfbench
