#!/usr/bin/env python3
"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Builds atombench (as run.py does) and, for every workload, checks that:
  - every declared metric is printed, finite and carries its unit, in
    both the untraced and the traced mode;
  - simulated and counted metrics repeat exactly across two runs of one
    seed, and a held-out seed passes every correctness check;
  - on kv1024, the read-only transactions are in the transaction count;
  - an injected consistency failure exits non-zero and fails every
    transaction.
Exits non-zero on the first failed check.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY_TXNS_PER_CORE = {"tpcc32": 2, "kv1024": 2, "tiered_eventual": 40}
SEED = 7
HELD_OUT_SEED = 8

# Metrics measured in host time or host memory. Every other metric is a
# count of the deterministic simulation and must repeat exactly.
HOST_METRICS = {
    "host_us_per_txn", "setup_s", "peak_rss_mb",
    "sim.host_ns_per_event", "atom.recover_ms", "workloads.gen_us_per_txn",
    "workloads.init_s", "harness.build_s", "harness.run_self_us_per_txn",
    "harness.trace_overhead_ratio", "sim.ns_per_post", "net.ns_per_send",
    "cache.ns_per_miss", "mem.ns_per_nvm_op", "mem.ns_per_dram_read",
    "mem.ns_per_ssd_cmd", "atom.ns_per_log_entry",
}


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def invoke(binary, workload, seed, trace, extra=()):
    """One reduced-size run: (exit code, result, detail)."""
    tiny = ["--txns-per-core", str(TINY_TXNS_PER_CORE[workload])]
    code, lines = run.run_binary(binary, workload, seed, 0, trace,
                                 tiny + list(extra))
    result = run.parse_result(lines)
    expect(result is not None, f"{workload}: no result line")
    details = [l[len("detail "):] for l in lines if l.startswith("detail ")]
    expect(len(details) == 1, f"{workload}: no detail line")
    return code, result, json.loads(details[0])


def check_workload(binary, spec, workload):
    for trace in (0, 1):
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        runs = [invoke(binary, workload, SEED, trace) for _ in range(2)]
        for code, result, _ in runs:
            expect(code == 0 and result["correct"],
                   f"{workload} trace={trace}: run failed")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{workload} trace={trace}: attempted/failed")
            problems = run.check_metrics(result, declared)
            expect(not problems, f"{workload} trace={trace}: {problems}")
        (_, a, da), (_, b, db) = runs
        for m in declared:
            if m["name"] in HOST_METRICS:
                continue
            va = a["metrics"][m["name"]]["value"]
            vb = b["metrics"][m["name"]]["value"]
            expect(va == vb, f"{workload} trace={trace}: {m['name']} "
                             f"{va!r} != {vb!r} on one seed")
        expect((da["stats_hash"], da["mesh_hash"]) ==
               (db["stats_hash"], db["mesh_hash"]),
               f"{workload} trace={trace}: fingerprint differs on one seed")

    code, result, dh = invoke(binary, workload, HELD_OUT_SEED, 0)
    expect(code == 0 and result["correct"] and result["failed"] == 0,
           f"{workload}: held-out seed {HELD_OUT_SEED} failed")
    expect(dh["stats_hash"] != da["stats_hash"],
           f"{workload}: the seed does not change the simulation")

    if workload == "kv1024":
        reads = da["class_counts"][0]
        expect(da["completed"] ==
               1024 * da["txns_per_core"] * da["instances"],
               "kv1024: completed transactions != cores x txns/core")
        expect(reads > 0, "kv1024: no read-only transactions ran")
        expect(da["completed"] - da["committed"] == reads,
               "kv1024: read-only transactions missing from the count")


def check_injected_fault(binary):
    code, result, _ = invoke(binary, "tiered_eventual", SEED, 0,
                             ["--inject-fault", "1"])
    expect(code != 0, "an injected fault still exited 0")
    expect(not result["correct"], "an injected fault reported correct")
    expect(result["failed"] == result["attempted"] > 0,
           "an injected fault did not fail every transaction")


def main():
    spec = run.load_spec()
    binary = run.build()
    try:
        for w in spec["workloads"]:
            check_workload(binary, spec, w["name"])
            print(f"ok   {w['name']}")
        check_injected_fault(binary)
        print("ok   injected fault")
    except CheckFailed as e:
        print(f"FAIL {e}")
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
