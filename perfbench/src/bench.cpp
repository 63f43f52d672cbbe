#include "bench.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/datagen.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace gns;

// ---- Pinned Fig-3 recipe ---------------------------------------------------

namespace {

constexpr double kColumnWidth = 0.15;
constexpr double kColumnAspect = 2.0;
constexpr int kSubsteps = 20;  ///< MPM steps per recorded frame

core::FeatureConfig fig3_features() {
  core::FeatureConfig fc;
  fc.dim = 2;
  fc.history = 5;
  fc.connectivity_radius = 0.04;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 0.5};
  fc.material_feature = true;
  return fc;
}

core::GnsConfig fig3_model() {
  core::GnsConfig gc;
  gc.latent = 32;
  gc.mlp_hidden = 32;
  gc.mlp_layers = 2;
  gc.message_passing_steps = 3;
  return gc;
}

core::TrainConfig fig3_training() {
  core::TrainConfig tc;
  tc.steps = 2500;
  tc.lr = 2e-3;
  tc.lr_final = 2e-4;
  tc.noise_std = 3e-4;
  tc.log_every = 500;
  return tc;
}

}  // namespace

mpm::GranularSceneParams fig3_scene() {
  mpm::GranularSceneParams params;
  params.cells_x = 32;
  params.cells_y = 16;
  params.domain_width = 1.0;
  params.domain_height = 0.5;
  params.particles_per_cell_dim = 2;
  return params;
}

io::Trajectory fig3_reference(double phi_deg, int frames) {
  io::Dataset ds = core::generate_column_dataset(
      fig3_scene(), {phi_deg}, kColumnWidth, kColumnAspect, frames,
      kSubsteps);
  return std::move(ds.trajectories[0]);
}

void make_fixture(const std::string& path) {
  // Friction sweep of the training set; 30 degrees is held out.
  io::Dataset ds = core::generate_column_dataset(
      fig3_scene(), {20.0, 25.0, 35.0, 40.0, 45.0}, kColumnWidth,
      kColumnAspect, kFrames, kSubsteps);
  core::LearnedSimulator sim =
      core::make_simulator(ds, fig3_features(), fig3_model());
  core::train_gns(sim, ds, fig3_training());
  core::save_simulator(sim, path);
}

core::LearnedSimulator load_fixture(const std::string& path) {
  auto sim = core::load_simulator(path);
  if (!sim) throw std::runtime_error("cannot load checkpoint " + path);
  return std::move(*sim);
}

// ---- Statistics ------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

bool bitwise_equal(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)))
      return false;
  return true;
}

double seeded_angle(std::uint64_t seed, double lo, double hi) {
  Rng rng(0x9e3779b97f4a7c15ULL ^ seed);
  return rng.uniform(lo, hi);
}

Phase summarize(const OpTimes& times, double steps_per_op) {
  std::vector<double> rate;
  for (double wall : times.wall) rate.push_back(steps_per_op / wall);
  Phase p;
  p.steps_per_s = quantile(rate, kFastQuantile);
  p.cpu_steps_per_s = steps_per_op / median(times.cpu);
  p.p50_ms = 1e3 * median(times.wall);
  p.p90_ms = 1e3 * quantile(times.wall, 0.9);
  p.samples = static_cast<long>(times.wall.size());
  return p;
}

bool setup_only(const Options& opt, const Cost& setup, Result& result) {
  if (opt.setup_only) result.add("setup_s", "s", setup.cpu);
  return opt.setup_only;
}

void add_end_to_end(Result& result, const Phase& phase, const Cost& setup) {
  result.reference = {{"steps_per_s", "1/s", phase.steps_per_s},
                      {"peak_rss_mb", "MiB", peak_rss_mb()},
                      {"setup_s", "s", setup.cpu}};
  result.info.emplace_back("latency_p50_ms", phase.p50_ms);
  // The highest percentile reported has at least ten samples beyond it.
  if (phase.samples >= 100)
    result.info.emplace_back("latency_p90_ms", phase.p90_ms);
  result.info.emplace_back("cpu_steps_per_s", phase.cpu_steps_per_s);
  result.info.emplace_back("samples", static_cast<double>(phase.samples));
  result.info.emplace_back("setup_wall_s", setup.wall);
}

// ---- Process probes --------------------------------------------------------

namespace {

double status_field_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_field_mb("VmHWM"); }
double current_rss_mb() { return status_field_mb("VmRSS"); }

double cpu_probe_ms() {
  // A dependent floating-point recurrence: pure core speed, no memory.
  const auto t0 = Clock::now();
  volatile double sink = 0.0;
  double x = 0.5;
  for (int i = 0; i < 20'000'000; ++i) x = x * 3.7 * (1.0 - x);
  sink = x;
  (void)sink;
  return 1e3 * seconds_since(t0);
}

double mem_probe_ms() {
  // Streams a 64 MiB buffer (far past the private caches) four times.
  static std::vector<double> buffer(8u << 20, 1.0);
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < buffer.size(); i += 8) {
      acc += buffer[i];
      buffer[i] = acc * 1e-9;
    }
  }
  volatile double sink = acc;
  (void)sink;
  return 1e3 * seconds_since(t0);
}

HostTicks host_ticks() {
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks ticks;
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(in >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- Spans -----------------------------------------------------------------

std::int64_t now_ns() { return obs::trace_now_ns(); }

int Spans::open(const char* name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_ns(), 0, parent, 0});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end_ns = end;
  stack_.pop_back();
}

void Spans::record(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, -1, trace_id});
}

std::vector<double> Spans::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (name == s.name) out.push_back(1e-6 * (s.end_ns - s.start_ns));
  return out;
}

std::vector<double> Spans::self_ms(const std::string& parent_name) const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0) covered[s.parent] += 1e-6 * (s.end_ns - s.start_ns);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (parent_name == spans_[i].name)
      out.push_back(1e-6 * (spans_[i].end_ns - spans_[i].start_ns) -
                    covered[i]);
  return out;
}

void Spans::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"trace_id\": " << s.trace_id << "}";
  }
  out << "\n],\n\"program_trace\": " << obs::chrome_trace_json() << "}\n";
}

// ---- Program counters ------------------------------------------------------

double histogram_quantile(const std::string& name, double q) {
  return obs::MetricsRegistry::global().histogram(name).snapshot().quantile(
      q);
}

void add_gns_phases(Result& result) {
  for (const char* phase : {"encode", "process", "decode"}) {
    const std::string name = std::string("core.gns.") + phase + "_ms";
    result.add(name, "ms", histogram_quantile(name, 0.5));
  }
}

double counter_value(const std::string& name) {
  return static_cast<double>(
      obs::MetricsRegistry::global().counter(name).value());
}

void ExecWindow::begin() {
  const exec::ExecutorStats s = exec::Executor::global().stats();
  executed_ = s.executed;
  stolen_ = s.stolen;
  busy_ = s.busy_seconds;
  t0_ = Clock::now();
}

void ExecWindow::end(Result& result, double steps) {
  const double wall = seconds_since(t0_);
  const exec::ExecutorStats s = exec::Executor::global().stats();
  const double executed = static_cast<double>(s.executed - executed_);
  const double stolen = static_cast<double>(s.stolen - stolen_);
  result.add("exec.busy_ratio", "ratio",
             (s.busy_seconds - busy_) / (s.workers * wall));
  result.add("exec.tasks_per_step", "count", executed / steps);
  result.add("exec.steal_ratio", "ratio",
             executed > 0.0 ? stolen / executed : 0.0);
}

void add_trace_overhead(Result& result, const Phase& untraced,
                        const Phase& traced) {
  result.add("obs.trace_overhead_pct.steps_per_s", "%",
             100.0 * (traced.steps_per_s - untraced.steps_per_s) /
                 untraced.steps_per_s);
}

}  // namespace perfbench
