#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run builds the program and the
benchmark binary into .bench_build/perfbench (CMake, Release); later runs
reuse that build. The pinned checkpoint perfbench/fixtures/gns_columns_v1.bin
is checked against its SHA-256 before anything runs.

The benchmark measures the default program: it removes the runtime path
toggles (GNS_ARENA, GNS_FUSED, GNS_SKIN, GNS_SIMD, GNS_EXEC) from the
environment and pins the executor to 2 workers (GNS_EXEC_WORKERS=2).

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics. An untraced run also starts the workload twice more,
only to set it up, and reports setup_s as the median of the three cold
set-ups. A traced run also reruns the workload untraced at one executor
worker for exec.speedup_2v1. The line before the result is a stamp
of the host, the program configuration and the fixture digest; traced runs
write their spans to .bench_out/.

Exits non-zero, printing no result, when the build, the fixture or the run
fails, and non-zero after printing the result when an output check fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
FIXTURE = os.path.join(HERE, "fixtures", "gns_columns_v1.bin")
FIXTURE_SHA256 = (
    "794bffd7c0b9074290534587d6ff99f35f3dbda086b42c39daa9dae667d0df4f")
WORKLOADS = ("rollout_fig3", "mpm_column", "serve_wire")
TOGGLES = ("GNS_ARENA", "GNS_FUSED", "GNS_SKIN", "GNS_SIMD", "GNS_EXEC")
# Other variables the program reads that would change what is measured.
CLEARED = TOGGLES + (
    "GNS_EXEC_WORKERS", "GNS_NUM_THREADS", "GNS_TRACE", "GNS_TRACE_FILE",
    "GNS_METRICS_FILE", "GNS_CACHE_DIR", "GNS_CACHE_BYTES",
    "GNS_SLOW_REQUEST_MS")
WORKERS = 2
SETUPS = 3  # cold set-ups per untraced run, each in its own process
RUN_LIMIT_S = 175.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings the build up to date, quietly."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def check_fixture():
    if not os.path.isfile(FIXTURE):
        fail(f"missing fixture {FIXTURE}")
    with open(FIXTURE, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    if digest != FIXTURE_SHA256:
        fail(f"fixture digest {digest} is not the pinned {FIXTURE_SHA256}")
    return digest


def run_binary(binary, args, workers, deadline, setup_only=False):
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env["GNS_EXEC_WORKERS"] = str(workers)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fixture", FIXTURE, "--out-dir", OUT,
           "--setup-only", "1" if setup_only else "0"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    fixture_sha256 = check_fixture()
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    run = run_binary(binary, args, WORKERS, deadline)
    attempted, failed = run["attempted"], run["failed"]
    metrics = run["metrics"]
    correct = run["correct"]
    errors = list(run["errors"])
    setups = [run["untraced"]["setup_s"]["value"]]
    if args.trace:
        # exec.speedup_2v1: the untraced steps_per_s at 2 workers (this
        # run's untraced phase) over a rerun at 1 worker of the same length.
        one = argparse.Namespace(**vars(args))
        one.trace, one.seconds = 0, args.seconds / 2
        single = run_binary(binary, one, 1, deadline)
        attempted += single["attempted"]
        failed += single["failed"]
        correct = correct and single["correct"]
        errors += single["errors"]
        metrics["exec.speedup_2v1"] = {
            "value": run["untraced"]["steps_per_s"]["value"] /
                     single["metrics"]["steps_per_s"]["value"],
            "unit": "ratio"}
    else:
        for _ in range(SETUPS - 1):
            setup = run_binary(binary, args, WORKERS, deadline,
                               setup_only=True)
            setups.append(setup["metrics"]["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)

    want = expected_metrics(args.trace)
    if args.trace:
        # A layer this workload's traced run does not measure reads 0.
        for name, unit in want.items():
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
             f"{sorted(want.items())}")

    stamp = dict(run["stamp"], fixture_sha256=fixture_sha256,
                 errors=errors, untraced=run["untraced"], setups_s=setups)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    if not correct:
        for e in errors:
            print(f"perfbench: check failed: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
