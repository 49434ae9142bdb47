#!/usr/bin/env python3
"""Build atombench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n>
                             --seconds <s> --trace <0|1>

Run it from the root of the checkout. The binary is built with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
first run builds, later runs only re-link what changed. The benchmark
prints every metric with its unit and direction, then, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.
It exits non-zero when a correctness check fails or the build fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build atombench; returns the binary path."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "atombench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "atombench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Run atombench once; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), f"spans-{workload}-{seed}.json")
        cmd += ["--spans-out", spans]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The binary's final JSON line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys \
        else None


def check_metrics(result, declared):
    """Problems with the metric set against BENCHMARK.json, if any."""
    problems = []
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"declared {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got.get('value')!r}")
    extra = set(metrics) - {m["name"] for m in declared}
    problems += [f"undeclared metric {name}" for name in sorted(extra)]
    return problems


def print_table(workload, result, declared):
    print(f"== {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for m in declared:
        got = result["metrics"][m["name"]]
        print(f"  {m['name']:<34} {got['value']!r:>24} {m['unit']:<10} "
              f"({m['better']} is better)")


def run_one(binary, spec, workload, seed, seconds, trace):
    """Run and validate one workload; returns (exit code, result)."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    code, lines = run_binary(binary, workload, seed, seconds, trace)
    for line in lines[:-1]:
        print(line)
    result = parse_result(lines)
    if result is None:
        print(f"run.py: {workload}: no result line", file=sys.stderr)
        return code or 1, None
    problems = check_metrics(result, declared)
    if problems:
        for p in problems:
            print(f"run.py: {workload}: {p}", file=sys.stderr)
        return code or 1, None
    print_table(workload, result, declared)
    return code, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = load_spec()
        binary = build()
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"run.py: cannot build the benchmark: {e}", file=sys.stderr)
        return 2

    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {names} or 'all'", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]

    worst = 0
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for w in chosen:
        try:
            code, result = run_one(binary, spec, w, args.seed,
                                   args.seconds, args.trace)
        except subprocess.TimeoutExpired:
            print(f"run.py: {w}: timed out", file=sys.stderr)
            return 1
        if result is None:
            return code
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            key = name if len(chosen) == 1 else f"{w}.{name}"
            combined["metrics"][key] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
