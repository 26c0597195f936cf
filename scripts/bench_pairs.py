#!/usr/bin/env python3
"""Runs alternating parent/change pairs of perfbench and writes BENCH_<label>.json.

Usage, from the root of a checkout (the change side is this checkout,
committed or not):
  python3 scripts/bench_pairs.py --parent COMMIT --label NAME \
      --workload olap [--workload oltp ...] --pairs N --seeds 901,902,... \
      [--seconds 20] [--trace 0|1] [--scale 1.0] [--parent-dir DIR]

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
seeds, and the attempted, failed and correct counts of every run.
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


def directions():
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for metric in spec.get(group, []):
            out[metric["name"]] = metric["better"]
    return out


def git(*args, cwd=ROOT):
    out = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    if out.returncode != 0:
        fail("git %s failed: %s" % (" ".join(args), out.stderr.strip()))
    return out.stdout.strip()


def run_side(src, build_dir, workload, seed, args):
    """One perfbench run from checkout `src`: its context line and result."""
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
    for line in lines:
        if line.startswith("# context "):
            context = json.loads(line[len("# context "):])
    result = json.loads(lines[-1])
    return context, result


def summary(values):
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("oltp", "olap", "soe_sql"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
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
            contexts = {}
            pairs = []
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    src, build_dir = sides[side]
                    context, result = run_side(src, build_dir, workload, seed, args)
                    contexts.setdefault(side, context)
                    runs[side].append(result)
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
            report["workloads"][workload] = {
                "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
                "seeds": [p["seed"] for p in pairs],
                "context": contexts,
                "runs": {side: [{"attempted": r["attempted"], "failed": r["failed"],
                                 "correct": r["correct"]} for r in runs[side]]
                         for side in runs},
                "metrics": metrics,
                "pairs": pairs,
            }
    finally:
        if worktree is not None:
            git("worktree", "remove", "--force", worktree)

    with open(output, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(output)


if __name__ == "__main__":
    main()
