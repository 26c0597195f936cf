#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale.

Usage, from the root of a checkout: python3 perfbench/selftest.py

For each workload it runs a short op-bounded untraced run and two traced
runs with the same seed, through run.py, and checks that:
  - every run is correct with no failed operation (failed_ratio = 0);
  - the JSON metrics are exactly BENCHMARK.json's end_to_end names
    (untraced) and per_layer names (traced);
  - the per-operation-class metric lines of the workload are printed;
  - the exact counts repeat exactly across the two traced runs.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--ops", "64", "--scale", "0.02"]

# Metric lines each workload must print in an untraced run.
PRINTED = {
    "oltp": ["point_read_p50_us", "point_read_p99_us", "write_txn_p50_us",
             "write_txn_p99_us", "failed_ratio"],
    "olap": ["query_p50_ms", "query_p90_ms", "failed_ratio"],
    "soe_sql": ["query_p50_ms", "query_p90_ms", "write_txn_p50_us",
                "write_txn_p99_us", "failed_ratio"],
}
# Counts that depend only on the seed and the operation count.
EXACT = {
    "oltp": ["txn.log_records_per_commit", "txn.log_file_bytes_per_commit"],
    "olap": ["query.rows_materialized_per_stmt", "query.rows_scanned_per_row"],
    "soe_sql": ["soe.fragments_per_query", "soe.shuffle_kb_per_query",
                "soe.coordinator_kb_per_query"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--trace", str(trace)] + TINY
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit("%s trace=%d exited %d:\n%s" % (workload, trace, proc.returncode,
                                                 proc.stderr[-3000:]))
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check(ok, message):
    if not ok:
        sys.exit("FAIL: " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        lines, result = run(workload, 0)
        check(result["correct"] and result["failed"] == 0,
              "%s: %d of %d operations failed" % (workload, result["failed"],
                                                  result["attempted"]))
        check(set(result["metrics"]) == end_to_end,
              "%s: end-to-end metrics %s" % (workload, sorted(result["metrics"])))
        printed = {line.split()[1]: line.split()[2] for line in lines
                   if line.startswith("metric ")}
        for name in PRINTED[workload]:
            check(name in printed, "%s: no metric line %s" % (workload, name))
        check(float(printed["failed_ratio"]) == 0, "%s: failed_ratio != 0" % workload)

        traced = [run(workload, 1)[1] for _ in range(2)]
        for result in traced:
            check(result["correct"] and result["failed"] == 0,
                  "%s traced: operations failed" % workload)
            check(set(result["metrics"]) == per_layer,
                  "%s traced: per-layer metrics %s" % (workload, sorted(result["metrics"])))
        for name in EXACT[workload]:
            values = [r["metrics"][name]["value"] for r in traced]
            check(values[0] == values[1] and values[0] > 0,
                  "%s: %s differs between runs or is 0: %s" % (workload, name, values))
        print("ok %s: %d ops, exact counts %s" % (
            workload, result["attempted"],
            {n: round(traced[0]["metrics"][n]["value"], 4) for n in EXACT[workload]}))
    print("selftest passed")


if __name__ == "__main__":
    main()
