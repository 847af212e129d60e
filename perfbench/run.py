#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace {0|1}
    python3 perfbench/run.py --knee [--seed N] [--seconds N]

Builds libpcn, pcnd and the perfbench binary from this checkout's sources
(into $CARGO_TARGET_DIR, default .bench_build), runs the workload, and
prints the binary's `# ...` lines followed by one JSON result line holding
exactly the metrics BENCHMARK.json lists: the end_to_end ones untraced,
the per_layer ones with --trace 1 (per-layer metrics a workload does not
exercise read 0).  Exits nonzero, without a result, when the sources or
the build are missing, and with "correct": false when a check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
STEAL_RETRY_PCT = 5.0


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds; all build output goes to stderr."""
    for needed in ("src/CMakeLists.txt", "tools/pcnd.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die("missing %s: run from a full checkout of the repository" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(step))


def run_once(command, run_dir, workload, timeout):
    """Runs the binary once: its exit status, `#` lines and result."""
    try:
        proc = subprocess.run(command, cwd=run_dir, stdout=subprocess.PIPE,
                              timeout=timeout, universal_newlines=True)
    except subprocess.TimeoutExpired:
        die("workload %s timed out" % workload)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        die("workload %s exited %d without a result" % (workload, proc.returncode))
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="socket_serve")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--knee", action="store_true",
                        help="step socket_serve's offered rate to find its knee")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("missing BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.knee:
        args.workload = "socket_serve"
    elif args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    build(build_dir)

    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(run_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--pcnd", os.path.join(build_dir, "pcnd")]
    if args.knee:
        command.append("--knee")
    # On a shared VM the hypervisor can steal a tenth of the machine's CPU
    # time for minutes at a time; a run in such a period measures the host
    # (socket_serve's p90 tripled at 11% steal).  A run that passed every
    # check but saw more than STEAL_RETRY_PCT steal is made once more, in a
    # fresh process (so peak RSS is the attempt's own), with the same seed
    # and inputs, and the attempt with less steal is kept.  A failed check
    # is never retried away.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    attempts = 1 if args.knee else 2
    kept = None
    steals = []
    try:
        for _ in range(attempts):
            started = time.monotonic()
            returncode, notes, measured = run_once(
                command, run_dir, args.workload,
                None if args.knee else deadline - started)
            steal = measured["metrics"]["host.steal_pct"]["value"]
            steals.append("%.1f%%" % steal)
            if kept is None or not measured["correct"] or steal < kept[3]:
                kept = (returncode, notes, measured, steal)
            took = time.monotonic() - started
            if (not kept[2]["correct"] or kept[3] <= STEAL_RETRY_PCT
                    or 1.5 * took > deadline - time.monotonic()):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    returncode, notes, measured, steal = kept
    for line in notes:
        print(line)
    if args.knee:
        print(json.dumps(measured))
        return returncode
    print("# host steal per attempt: %s (retry above %.0f%%); kept %.1f%%"
          % (", ".join(steals), STEAL_RETRY_PCT, steal))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = measured["metrics"].get(name)
        if got is None and not args.trace:
            die("workload %s did not measure %s" % (args.workload, name))
        if got is not None and got["unit"] != unit:
            die("%s: unit %s, BENCHMARK.json says %s" % (name, got["unit"], unit))
        metrics[name] = {"value": got["value"] if got else 0, "unit": unit}
    result = {"correct": measured["correct"], "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": metrics}
    print(json.dumps(result))
    return returncode


if __name__ == "__main__":
    sys.exit(main())
