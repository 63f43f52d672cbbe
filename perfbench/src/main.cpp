// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --fixture <checkpoint> --out-dir <dir> [--setup-only 1]
//   perfbench --make-fixture <checkpoint>
//
// Prints one JSON line: correct/attempted/failed, the metrics of the mode
// (end-to-end untraced, per-layer traced), the failed checks, the
// untraced-phase end-to-end metrics and a stamp of the host and program
// configuration. perfbench/run.py builds this binary and turns that line
// into the benchmark's result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "ad/arena.hpp"
#include "ad/ops.hpp"
#include "bench.hpp"
#include "exec/executor.hpp"
#include "graph/neighbor_search.hpp"
#include "serve/cache_key.hpp"
#include "util/simd.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", " : "") + quoted(metrics[i].name) +
           ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  return out + "}";
}

/// Host and configuration stamp: what the numbers were measured on, and
/// the effective value of every runtime path toggle.
std::string stamp_json(const Options& opt, const Result& result,
                       double cpu_start, double cpu_end, double mem_start,
                       double mem_end, double steal_pct) {
  using namespace gns;
  const core::LearnedSimulator sim = load_fixture(opt.fixture);
  std::ostringstream out;
  out << "{\"workload\": " << quoted(opt.workload)
      << ", \"seed\": " << opt.seed
      << ", \"seconds\": " << number(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << quoted(cpu_model())
      << ", \"avx2\": " << (simd::cpu_has_avx2() ? 1 : 0)
      << ", \"exec_workers\": " << exec::Executor::global().workers()
      << ", \"GNS_ARENA\": " << (ad::arena_enabled() ? 1 : 0)
      << ", \"GNS_FUSED\": " << (ad::fused_linear_enabled() ? 1 : 0)
      << ", \"GNS_SKIN\": " << number(graph::default_skin_fraction())
      << ", \"GNS_SIMD\": " << (simd::enabled() ? 1 : 0)
      << ", \"GNS_EXEC\": " << (exec::enabled() ? 1 : 0)
      << ", \"model_digest\": "
      << quoted(std::to_string(serve::model_digest(sim)))
      << ", \"cpu_probe_ms\": [" << number(cpu_start) << ", "
      << number(cpu_end)
      << "], \"mem_probe_ms\": [" << number(mem_start) << ", "
      << number(mem_end) << "], \"steal_pct\": " << number(steal_pct);
  for (const auto& [key, value] : result.info)
    out << ", " << quoted(key) << ": " << number(value);
  out << "}";
  return out.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --fixture PATH --out-dir DIR [--setup-only 1]\n"
               "       perfbench --make-fixture PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  if (argc % 2 == 0) return usage();  // flags come in --key value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  try {
    if (args.count("make-fixture")) {
      make_fixture(args["make-fixture"]);
      return 0;
    }
    for (const char* key :
         {"workload", "seed", "seconds", "trace", "fixture", "out-dir"})
      if (!args.count(key)) return usage();
    Options opt;
    opt.workload = args["workload"];
    opt.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    opt.seconds = std::atof(args["seconds"].c_str());
    opt.trace = args["trace"] == "1";
    opt.fixture = args["fixture"];
    opt.out_dir = args["out-dir"];
    opt.setup_only = args["setup-only"] == "1";
    using Workload = void (*)(const Options&, Result&);
    const std::map<std::string, Workload> workloads = {
        {"rollout_fig3", run_rollout_fig3},
        {"mpm_column", run_mpm_column},
        {"serve_wire", run_serve_wire},
    };
    const auto workload = workloads.find(opt.workload);
    if (workload == workloads.end() || !(opt.seconds > 0.0)) return usage();

    const double cpu_start = cpu_probe_ms();
    const double mem_start = mem_probe_ms();
    const HostTicks ticks_start = host_ticks();
    Result result;
    workload->second(opt, result);
    const HostTicks ticks_end = host_ticks();
    const double cpu_end = cpu_probe_ms();
    const double mem_end = mem_probe_ms();
    // Share of the VM's CPU time the hypervisor gave to other guests.
    const double ticks = ticks_end.total - ticks_start.total;
    const double steal_pct =
        ticks > 0.0 ? 100.0 * (ticks_end.steal - ticks_start.steal) / ticks
                    : 0.0;
    if (opt.trace) {
      result.add("host.cpu_probe_ms", "ms", 0.5 * (cpu_start + cpu_end));
      result.add("host.mem_probe_ms", "ms", 0.5 * (mem_start + mem_end));
    }
    for (Metric& m : result.metrics) {
      result.check(std::isfinite(m.value), m.name + " is not finite");
      if (!std::isfinite(m.value)) m.value = 0.0;
    }

    std::string errors = "[";
    for (std::size_t i = 0; i < result.errors.size(); ++i)
      errors += (i ? ", " : "") + quoted(result.errors[i]);
    errors += "]";
    const bool correct = result.errors.empty() && result.failed == 0;
    std::printf(
        "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": "
        "%s, \"errors\": %s, \"untraced\": %s, \"stamp\": %s}\n",
        correct ? "true" : "false", result.attempted, result.failed,
        metrics_json(result.metrics).c_str(), errors.c_str(),
        metrics_json(result.reference).c_str(),
        stamp_json(opt, result, cpu_start, cpu_end, mem_start, mem_end,
                   steal_pct)
            .c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
