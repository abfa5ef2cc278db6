#!/usr/bin/env python3
"""certchain perfbench: one run of one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call builds the harness
(perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR or .bench_build;
later calls rebuild incrementally. The run's inputs are generated from
--seed; its scratch files live under the build directory and are removed
afterwards.

Workloads (BENCHMARK.json lists the first two):
  batch-serial  the paper's Figure-2 job: StudyPipeline::run over the Zeek
                log text with threads=1, then render_report_text(graphs)
  batch-stream  the same bytes through StudyInput::files, 4 MiB chunks,
                threads = nproc
  serve-read    open-loop reads against a daemon child (classify_issuer,
                categorize_chain, report_section, ct_prove_inclusion, ping;
                a fifth of the requests each)
  live-fleet    fleet epochs scanned and appended to a WAL-armed daemon by a
                closed-loop writer while reads continue at a tenth of the rate
The serving workloads run by hand and as short passes inside every traced
run (so their per-layer metrics are always reported); their figures were
not steady enough on a shared 4-vCPU host to carry regression bounds.

Each workload prints only the end-to-end metrics it measures itself; for
the listed workloads that is exactly the end_to_end list of BENCHMARK.json.
  rows_per_s          batch-*: log rows per second through one op (median
                      op after one untimed warm-up op)
  peak_rss_mb         batch-*: this process's peak during the ops (reset after
                      set-up); serving: the daemon child's peak
  setup_s             median of three complete set-ups (scenario, logs,
                      reference analysis, daemon, fleet populations)
  read_p50_ms/p99_ms  serve-read, live-fleet: client latency from each
                      request's due time at the fixed offered rate (1000/s;
                      100/s in live-fleet). Taken per window of 500 reads,
                      median window
  read_sustained_rps  serve-read: answered reads/s at the highest rung of a
                      fixed x1.12 offered-rate ladder (1000/s .. 8600/s) whose
                      p99 stays within 50 ms with no backlog, no wrong answer
                      and a generator within its 10 ms lateness bound (a
                      failing rung is retried once)
  append_p50_ms       live-fleet: client time to acknowledgement of an epoch
                      append
  scan_targets_per_s  live-fleet: targets/s of the median campaign epoch
--trace 1 prints every per_layer metric of BENCHMARK.json on every workload.

Percentiles follow one rule: a requested quantile is lowered until at least
ten samples lie beyond it. Failed answers count as failed ops and as
infinitely slow. Numbers from Debug or sanitizer builds are refused.

Seed 770077 was never run while this benchmark was tuned; check claims made
on other seeds against it too.

Exit status: 0 when every correctness gate held; non-zero otherwise, and
without a result line when the run could not produce one.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Runnable and traced, but not in BENCHMARK.json (see the docstring), with
# the end-to-end metrics only they measure.
BY_HAND_WORKLOADS = ("serve-read", "live-fleet")
BY_HAND_METRICS = [
    {"name": "read_p50_ms", "unit": "ms"},
    {"name": "read_p99_ms", "unit": "ms"},
    {"name": "read_sustained_rps", "unit": "1/s"},
    {"name": "append_p50_ms", "unit": "ms"},
    {"name": "scan_targets_per_s", "unit": "1/s"},
]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(os.getcwd(), base)


def build():
    """Configures (once) and builds the harness; returns its build dir."""
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def selftest():
    build_dir = build()
    status = subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                            os.path.join(HERE, "tests"), "-p", "test_*.py"]).returncode
    return 0 if status == 0 and tests == 0 else 1


def check_metrics(metrics, declared, exact=True):
    """The document must carry the declared metrics (exactly them when
    `exact`; a by-hand workload carries its own subset), as numbers."""
    expected = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(expected) - set(metrics)) if exact else []
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        return f"metric set mismatch: missing {missing}, undeclared {extra}"
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name} is not a finite number"
        if metric.get("unit") != expected[name]:
            return f"{name} unit {metric.get('unit')} != declared {expected[name]}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + list(BY_HAND_WORKLOADS)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload}; choose from {names}")

    started = time.monotonic()
    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    workdir = os.path.join(build_root(), "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "certchain_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode not in (0, 1) or not lines:
        log(f"harness exited with status {proc.returncode} and no result")
        return proc.returncode or 3
    document = json.loads(lines[-1])
    result = document["result"]
    if args.trace:
        problem = check_metrics(result["metrics"], spec["per_layer"])
    elif args.workload in BY_HAND_WORKLOADS:
        problem = check_metrics(result["metrics"], spec["end_to_end"] + BY_HAND_METRICS,
                                exact=False)
    else:
        problem = check_metrics(result["metrics"], spec["end_to_end"])
    if problem is not None:
        log(problem)
        return 4

    details = {k: v for k, v in document.items() if k != "result"}
    details["wall_s"] = round(time.monotonic() - started, 3)
    print("# " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
