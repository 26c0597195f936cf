#!/usr/bin/env python3
"""Runs alternating parent/change pairs of perfbench and writes BENCH_<label>.json.

Usage, from the root of a checkout (the change side is this checkout,
committed or not):
  python3 scripts/bench_pairs.py --parent COMMIT --label NAME \
      --workload olap [--workload oltp ...] --pairs N --seeds 901,902,... \
      [--seconds 20] [--trace 0|1] [--scale 1.0] [--parent-dir DIR]
  python3 scripts/bench_pairs.py --report BENCH_<label>.json

The parent side is a `git worktree` of COMMIT (removed afterwards), or an
existing checkout given with --parent-dir (for example a `git archive`
export). Each side builds perfbench in its own directory under
.bench_pairs/ (via CARGO_TARGET_DIR), so neither side's build is reused for
the other. Pair i runs seed i of --seeds (the list repeats if shorter than
--pairs) on both sides; the side that runs first alternates from pair to
pair, so a slow drift of the host does not favour one side. Running it
again with other workloads adds them to the same BENCH file.

BENCH_<label>.json records, per workload: each side's perfbench `# context`
line, every metric's median and quartiles per side, for metrics that
BENCHMARK.json gives a direction the number of pairs the change won, the
seeds, and the attempted, failed and correct counts of every run. Under
"printed_metrics" it keeps every `metric <name> <value> <unit>` line a run
printed, also those its JSON result leaves out (the per-shape latencies
such as query_p50_ms.join_groupby), as per-side medians and quartiles.

At the end of a run, and alone with --report (which runs nothing), it
prints one line per workload and end-to-end metric of BENCHMARK.json: both
medians; the move in the worse direction as a share of the parent median
(negative when the change is better); each side's interquartile range as a
share of the parent median; the metric's bound; the pairs the change won;
and whether every change run beat every parent run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("perfbench", "run.py")


def fail(message):
    print("bench_pairs: " + message, file=sys.stderr)
    sys.exit(1)


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def directions():
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    spec = benchmark_spec()
    out = {}
    for group in ("end_to_end", "per_layer"):
        for metric in spec.get(group, []):
            out[metric["name"]] = metric["better"]
    return out


def print_bounds_table(report, out=sys.stdout):
    """Each end-to-end metric of each workload in `report` beside its bound."""
    header = ("workload", "metric", "parent", "change", "worse", "parent IQR",
              "change IQR", "bound", "won", "all beat")
    rows = []
    for workload, data in sorted(report.get("workloads", {}).items()):
        npairs = len(data.get("pairs", []))
        for spec in benchmark_spec().get("end_to_end", []):
            entry = data["metrics"].get(spec["name"])
            if entry is None or "parent" not in entry or "change" not in entry:
                continue
            parent, change = entry["parent"], entry["change"]
            base = parent["median"]
            sign = 1 if spec["better"] == "lower" else -1

            def share(x):
                return "%+.1f%%" % (100 * x / base) if base else "n/a"

            def value(x):
                return "%.4g" % x if abs(x) < 1e4 else "%.0f" % x

            if sign > 0:
                all_beat = max(change["values"]) < min(parent["values"])
            else:
                all_beat = min(change["values"]) > max(parent["values"])
            rows.append((workload, spec["name"], value(base), value(change["median"]),
                         share(sign * (change["median"] - base)),
                         share(parent["q3"] - parent["q1"]).lstrip("+"),
                         share(change["q3"] - change["q1"]).lstrip("+"),
                         "%.0f%%" % (100 * spec["bound"]),
                         "%d/%d" % (entry.get("change_wins", 0), npairs),
                         "yes" if all_beat else "no"))
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip(), file=out)


def git(*args, cwd=ROOT):
    out = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    if out.returncode != 0:
        fail("git %s failed: %s" % (" ".join(args), out.stderr.strip()))
    return out.stdout.strip()


def run_side(src, build_dir, workload, seed, args):
    """One perfbench run from checkout `src`: its context line, its result,
    and the metric lines it printed as {name: (value, unit)}."""
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(cmd, cwd=src, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail("%s seed %d in %s exited with code %d" % (workload, seed, src, proc.returncode))
    context = None
    printed = {}
    for line in lines:
        if line.startswith("# context "):
            context = json.loads(line[len("# context "):])
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            try:
                printed[fields[1]] = (float(fields[2]), fields[3])
            except ValueError:
                pass
    result = json.loads(lines[-1])
    return context, result, printed


def summary(values):
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", metavar="BENCH_FILE",
                        help="print the bounds table of an existing BENCH file and exit")
    parser.add_argument("--parent", help="commit of the parent side")
    parser.add_argument("--label", help="names BENCH_<label>.json")
    parser.add_argument("--workload", action="append",
                        choices=("oltp", "olap", "soe_sql"))
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seeds", help="comma-separated seeds")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--parent-dir", help="existing checkout of --parent to use "
                        "instead of a git worktree")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".bench_pairs"),
                        help="holds both build directories and the parent worktree")
    parser.add_argument("--output", help="output file (default ROOT/BENCH_<label>.json); "
                        "workloads already in it for the same parent commit are kept")
    args = parser.parse_args()
    if args.report:
        with open(args.report) as f:
            print_bounds_table(json.load(f))
        return
    missing = [flag for flag, value in (("--parent", args.parent), ("--label", args.label),
                                        ("--workload", args.workload),
                                        ("--pairs", args.pairs), ("--seeds", args.seeds))
               if value is None]
    if missing:
        parser.error("a run needs " + ", ".join(missing))
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if args.pairs < 1 or not seeds:
        fail("need at least one pair and one seed")

    work = os.path.abspath(args.work_dir)
    os.makedirs(work, exist_ok=True)
    parent_commit = git("rev-parse", args.parent)
    worktree = None
    parent_src = os.path.abspath(args.parent_dir) if args.parent_dir else None
    if parent_src is None:
        worktree = os.path.join(work, "parent-src")
        if os.path.exists(worktree):
            git("worktree", "remove", "--force", worktree)
        git("worktree", "add", "--detach", worktree, parent_commit)
        parent_src = worktree
    sides = {"parent": (parent_src, os.path.join(work, "build-parent")),
             "change": (ROOT, os.path.join(work, "build-change"))}
    better = directions()

    report = {
        "label": args.label,
        "parent": {"commit": parent_commit},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain", "--", "src"))},
        "workloads": {},
    }
    output = args.output or os.path.join(ROOT, "BENCH_%s.json" % args.label)
    if os.path.isfile(output):
        with open(output) as f:
            previous = json.load(f)
        if previous.get("parent", {}).get("commit") == parent_commit:
            report["workloads"] = previous.get("workloads", {})
    try:
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            printed = {"parent": [], "change": []}
            contexts = {}
            pairs = []
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    src, build_dir = sides[side]
                    context, result, lines = run_side(src, build_dir, workload, seed, args)
                    contexts.setdefault(side, context)
                    runs[side].append(result)
                    printed[side].append(lines)
                    pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
                    print("%s pair %d seed %d %s: ops_per_s %s, failed %d, correct %s" % (
                        workload, i + 1, seed, side,
                        pair[side].get("ops_per_s"), result["failed"], result["correct"]),
                        file=sys.stderr)
                pairs.append(pair)

            metrics = {}
            for name in runs["change"][0]["metrics"]:
                entry = {"unit": runs["change"][0]["metrics"][name]["unit"]}
                for side in ("parent", "change"):
                    entry[side] = summary([r["metrics"][name]["value"] for r in runs[side]
                                           if name in r["metrics"]])
                if name in better:
                    entry["better"] = better[name]
                    sign = 1 if better[name] == "higher" else -1
                    entry["change_wins"] = sum(
                        1 for p in pairs
                        if name in p["parent"] and name in p["change"]
                        and sign * (p["change"][name] - p["parent"][name]) > 0)
                metrics[name] = entry
            printed_metrics = {}
            for name, (_, unit) in printed["change"][0].items():
                printed_metrics[name] = {"unit": unit}
                for side in ("parent", "change"):
                    values = [lines[name][0] for lines in printed[side] if name in lines]
                    if values:
                        printed_metrics[name][side] = summary(values)
            report["workloads"][workload] = {
                "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
                "seeds": [p["seed"] for p in pairs],
                "context": contexts,
                "runs": {side: [{"attempted": r["attempted"], "failed": r["failed"],
                                 "correct": r["correct"]} for r in runs[side]]
                         for side in runs},
                "metrics": metrics,
                "printed_metrics": printed_metrics,
                "pairs": pairs,
            }
    finally:
        if worktree is not None:
            git("worktree", "remove", "--force", worktree)

    with open(output, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print_bounds_table(report)
    print(output)


if __name__ == "__main__":
    main()
