#!/usr/bin/env python3
"""Builds and runs the Polyphony benchmark (see perfbench/README.md).

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload oltp|olap|soe_sql --seed N \
      --seconds S --trace 0|1 [--ops N] [--scale F]

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. Every metric line
is printed by name with its unit; the last line is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run alternates
untraced and traced operations, writes its spans to
<build dir>/traces/<workload>-seed<N>.jsonl and reports the per-layer
metrics computed by summarize.py, including the tracing overhead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oltp", "olap", "soe_sql")
# Time a run may take beyond --seconds: five set-ups, warm-up and the
# result checks that follow the timed loop.
RUN_MARGIN_S = 150
BUILD_TIMEOUT_S = 850

sys.path.insert(0, HERE)
import summarize  # noqa: E402


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once and builds polybench; build output goes to stderr so
    the last stdout line stays the result."""
    binary = os.path.join(build_dir, "polybench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                # Configured from another checkout: start over.
                os.remove(cache)
                shutil.rmtree(os.path.join(build_dir, "CMakeFiles"), ignore_errors=True)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail("build step %s failed: %s" % (" ".join(step), e))
    if not os.path.isfile(binary):
        fail("build produced no %s" % binary)
    return binary


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="operations per client instead of --seconds (self-test)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="data-size multiplier (self-test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s/src; run from a full checkout" % ROOT)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
    work_dir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ops", str(args.ops), "--scale", str(args.scale),
           "--work-dir", work_dir, "--trace-file", trace_file, "--commit", git_commit()]
    timeout_s = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %g s" % (args.workload, timeout_s))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if args.trace:
        metrics, report = summarize.summarize(trace_file)
        print("\n".join(report))
        result["metrics"] = {name: {"value": value, "unit": unit}
                             for name, (value, unit) in metrics.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
