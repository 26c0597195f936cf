#!/usr/bin/env bash
# One command for every tier-2 gate — the checks that are stronger than the
# default `ctest` tier-1 run but too slow or too specialized to sit in it.
#
# Gates, in cheap-to-expensive order (a later gate only runs if the earlier
# ones pass, so a docs typo fails in seconds, not after a TSan rebuild):
#   1. docs        scripts/check_docs.sh + its --selftest-figures negative
#                  test (ctest -L docs)
#   2. tiering     three-band policy/daemon/heat regression suite
#                  (ctest -L tiering)
#   3. resource    workload-management suite: memory budget, admission,
#                  pressure broker, balance oracle (ctest -L resource)
#   4. soe-sql     distributed-SQL suite: fragment planner, shuffle and
#                  broadcast joins, the 50-seed distributed-vs-local oracle,
#                  mid-shuffle chaos (ctest -L soe-sql)
#   5. chaos       seeded chaos-oracle sweep, default 50 seeds
#                  (scripts/chaos_sweep.sh; ctest -L chaos runs the in-suite
#                  subset)
#   6. perfbench   the benchmark's self-test (python3 perfbench/selftest.py):
#                  builds perfbench/, runs every workload at scale 0.02 with
#                  result checks, the BENCHMARK.json metric names and exact
#                  counts that must repeat across two traced runs; the only
#                  check on perfbench's traced copies of Database::Execute
#                  and SoeSqlBridge::Execute. The Database::Execute copy
#                  keeps a compiled-kernel branch and an admission step that
#                  the library no longer has; neither changes what runs (no
#                  SQL plan is kernel-eligible, and the copy hands its
#                  ticket's budget to the Executor, which then does not
#                  admit again)
#   7. asan        whole-suite AddressSanitizer+UBSan build + run
#                  (POLY_SANITIZE=address; ctest -L tsan-full in build-asan)
#   8. tsan        whole-suite ThreadSanitizer build + run
#                  (scripts/run_tsan.sh; ctest -L tsan-full in build-tsan)
#
# Usage:
#   scripts/run_gates.sh            # all gates, needs an existing ./build
#   scripts/run_gates.sh docs tsan  # just the named gates
#
# Environment:
#   BUILD_DIR=build        tier-1 build tree (gates 1–3)
#   CHAOS_SEEDS=50         seed count for the chaos sweep
#   SKIP_TSAN_BUILD=       set non-empty to reuse an existing build-tsan
set -u

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
CHAOS_SEEDS="${CHAOS_SEEDS:-50}"
GATES="${*:-docs tiering resource soe-sql chaos perfbench asan tsan}"

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "run_gates.sh: no build tree at $BUILD_DIR" >&2
  echo "build first: cmake -B build -S . && cmake --build build -j" >&2
  exit 2
fi

run_gate() {
  local name="$1"; shift
  echo
  echo "==== gate: $name ===="
  if "$@"; then
    echo "==== gate: $name OK ===="
  else
    echo "run_gates.sh: gate '$name' FAILED" >&2
    exit 1
  fi
}

# The whole suite under ASan+UBSan. Any report fails the run: ASan aborts
# on its first error, and the build makes UBSan reports fatal.
run_asan() {
  local dir="${REPO_ROOT}/build-asan"
  cmake -B "$dir" -S "$REPO_ROOT" -DPOLY_SANITIZE=address &&
    cmake --build "$dir" -j"$(nproc)" --target poly_tests &&
    ctest --test-dir "$dir" -L tsan-full --output-on-failure
}

for gate in $GATES; do
  case "$gate" in
    docs)
      run_gate docs ctest --test-dir "$BUILD_DIR" -L docs --output-on-failure
      ;;
    tiering)
      run_gate tiering ctest --test-dir "$BUILD_DIR" -L tiering --output-on-failure
      ;;
    resource)
      run_gate resource ctest --test-dir "$BUILD_DIR" -L resource --output-on-failure
      ;;
    soe-sql)
      run_gate soe-sql ctest --test-dir "$BUILD_DIR" -L soe-sql --output-on-failure
      ;;
    chaos)
      run_gate chaos "$REPO_ROOT/scripts/chaos_sweep.sh" "$CHAOS_SEEDS" "$BUILD_DIR"
      ;;
    perfbench)
      run_gate perfbench python3 "$REPO_ROOT/perfbench/selftest.py"
      ;;
    asan)
      run_gate asan run_asan
      ;;
    tsan)
      run_gate tsan "$REPO_ROOT/scripts/run_tsan.sh"
      ;;
    *)
      echo "run_gates.sh: unknown gate '$gate' (know: docs tiering resource soe-sql chaos perfbench asan tsan)" >&2
      exit 2
      ;;
  esac
done

echo
echo "run_gates.sh: all gates passed ($GATES)"
