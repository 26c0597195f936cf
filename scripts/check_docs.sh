#!/usr/bin/env bash
# Documentation freshness gate (ctest label: docs).
#
# The docs make eight kinds of checkable claims, and each has rotted at
# least once before this gate existed:
#   1. repo paths in backticks (`src/...`, `tests/...`, `scripts/...`)
#   2. section references of the form `DESIGN.md §N` — in the docs AND in
#      source comments
#   3. experiment rows `| E<k> ...` in EXPERIMENTS.md (must be contiguous
#      from E1) and `bench_<name>` binaries the docs tell the reader to run
#   4. C++ code fences in README.md (compile-checked against src/)
#   5. `ctest -L <label>` commands (the label must exist in tests/CMakeLists.txt)
#   6. benchmark figures quoted in prose, via `<!-- bench-quote: ... -->`
#      annotations diffed against bench_output.txt with a tolerance
#   7. the annotations themselves must not be skipped: a prose line that
#      names a benchmark row AND quotes a unit figure (ns/us/ms/rows/s/%)
#      in a file with no bench-quote annotation for that row is drift
#      check 6 can never catch — flagged here
#   8. backticked `Type::Member` names in README, DESIGN and EXPERIMENTS
#      (also `Type::A/B`): each member must appear in a src/ header that
#      declares `class Type` or `struct Type`
#
# `--selftest-figures` runs checks 7 and 8 against deliberately planted
# violations (and correct controls) instead of the real docs;
# tests/CMakeLists.txt registers it as the gate's negative test.
#
# Fails loudly with every stale reference, not just the first.

set -u

ROOT="${REPO_ROOT:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT" || exit 1

DOCS="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md"
failures=0

fail() {
  echo "check_docs: $*" >&2
  failures=$((failures + 1))
}

# ---- 7 (function; called below, and by --selftest-figures) ---------------
# A benchmark figure quoted WITHOUT an annotation is invisible to check 6 —
# it would silently rot on the next re-run. Heuristic with no false
# negatives on the current docs: any line that names a row from
# bench_output.txt (first column, base name before any '/') and also quotes
# a number with a unit must have a `<!-- bench-quote: <row> ... -->`
# somewhere in the same file.
check_unannotated_figures() {
  [ -f bench_output.txt ] || return 0
  bench_names=$(awk '$2 ~ /^[0-9.]+$/ && $3 ~ /^(ns|us|ms|s)$/ {
                      split($1, a, "/"); print a[1]
                    }' bench_output.txt | sort -u)
  [ -n "$bench_names" ] || return 0
  for doc in "$@"; do
    [ -f "$doc" ] || continue
    for name in $bench_names; do
      hit=$(grep -nE "\b${name}\b" "$doc" |
            grep -E '[0-9]+(\.[0-9]+)?[[:space:]]*(ns|µs|us|ms|rows/s|%)' |
            head -1)
      [ -n "$hit" ] || continue
      grep -q "<!-- bench-quote: ${name}" "$doc" && continue
      fail "$doc:${hit%%:*} quotes a figure next to bench row '${name}' with no annotation — add '<!-- bench-quote: ${name} <field> <value> [tol=<pct>] -->' on an adjacent line (or drop the number)"
    done
  done
}

# ---- 8 (function; called below, and by --selftest-figures) ---------------
# An API name in prose is what a reader greps the headers for; a renamed or
# deleted member leaves the doc pointing at nothing. Each `/`-separated
# member, up to its first non-identifier character, must occur as a word
# in some src/ header declaring the type.
check_member_names() {
  local doc span type member headers
  for doc in "$@"; do
    [ -f "$doc" ] || continue
    while IFS= read -r span; do
      type=${span%%::*}
      headers=$(grep -rlE "(class|struct) ${type}\b" src --include='*.h')
      if [ -z "$headers" ]; then
        fail "$doc names \`${span}\` but no src/ header declares ${type}"
        continue
      fi
      for member in $(echo "${span#*::}" | grep -oE '^[A-Za-z_][A-Za-z0-9_/]*' | tr '/' ' '); do
        # shellcheck disable=SC2086  # $headers is a list of paths
        grep -qw -- "$member" $headers ||
          fail "$doc names \`${span}\` but no src/ header declaring ${type} has '${member}'"
      done
    done < <(grep -oE '`[^`]+`' "$doc" | tr -d '`' |
             grep -E '^[A-Z][A-Za-z0-9_]*::[A-Za-z_]' | sort -u)
  done
}

if [ "${1:-}" = "--selftest-figures" ]; then
  name=$(awk '$2 ~ /^[0-9.]+$/ && $3 ~ /^(ns|us|ms|s)$/ {
                split($1, a, "/"); print a[1]; exit
              }' bench_output.txt)
  [ -n "$name" ] || { echo "check_docs: selftest needs bench_output.txt" >&2; exit 1; }
  tmp=$(mktemp -d)
  # Planted drift: a figure beside a real row name, no annotation.
  printf 'The %s run takes 123 ms on this machine.\n' "$name" > "$tmp/planted.md"
  # Control: same claim, properly annotated — must NOT be flagged.
  printf 'The %s run takes 123 ms on this machine.\n<!-- bench-quote: %s time 123 -->\n' \
      "$name" "$name" > "$tmp/annotated.md"
  check_unannotated_figures "$tmp/planted.md"
  planted=$failures
  check_unannotated_figures "$tmp/annotated.md"
  control=$((failures - planted))
  # Planted check-8 drift: a registry member no header declares; control:
  # the real one.
  printf 'Look instruments up with `Registry::GetCounter(name)`.\n' > "$tmp/member.md"
  printf 'Look instruments up with `Registry::counter(name)`.\n' > "$tmp/member_ok.md"
  before=$failures
  check_member_names "$tmp/member.md"
  planted_member=$((failures - before))
  before=$failures
  check_member_names "$tmp/member_ok.md"
  control_member=$((failures - before))
  rm -rf "$tmp"
  if [ "$planted" -ge 1 ] && [ "$control" -eq 0 ] &&
     [ "$planted_member" -ge 1 ] && [ "$control_member" -eq 0 ]; then
    echo "check_docs: selftest OK (planted drift flagged, controls clean)"
    exit 0
  fi
  echo "check_docs: SELFTEST FAILED (figures: planted=$planted flagged, control=$control flagged;" \
       "members: planted=$planted_member flagged, control=$control_member flagged)" >&2
  exit 1
fi

# ---- 1. backticked repo paths must exist --------------------------------
for doc in $DOCS; do
  [ -f "$doc" ] || { fail "missing doc $doc"; continue; }
  # `...` spans that look like tree paths; globs (src/engines/*) skipped.
  grep -oE '`[^`]+`' "$doc" | tr -d '`' |
    grep -E '^(src|tests|bench|examples|scripts)/[A-Za-z0-9_./-]+$' |
    sort -u |
    while read -r path; do
      [ -e "$path" ] || echo "$doc names missing path: $path"
    done
done > /tmp/check_docs_paths.$$
while read -r line; do fail "$line"; done < /tmp/check_docs_paths.$$
rm -f /tmp/check_docs_paths.$$

# ---- 2. DESIGN.md §N references must resolve to a "## N." heading -------
refs=$(grep -rhoE 'DESIGN\.md §[0-9]+' $DOCS src tests bench examples scripts 2>/dev/null |
  grep -oE '[0-9]+' | sort -un)
for n in $refs; do
  grep -qE "^## ${n}\." DESIGN.md ||
    fail "reference to DESIGN.md §${n} but DESIGN.md has no '## ${n}.' heading"
done

# ---- 3a. EXPERIMENTS.md rows E1..Emax must be contiguous ----------------
rows=$(grep -oE '^\| E[0-9]+' EXPERIMENTS.md | grep -oE '[0-9]+' | sort -un)
max=$(echo "$rows" | tail -1)
if [ -z "$max" ]; then
  fail "EXPERIMENTS.md has no '| E<k>' experiment rows"
else
  for k in $(seq 1 "$max"); do
    echo "$rows" | grep -qx "$k" ||
      fail "EXPERIMENTS.md experiment rows skip E${k} (max row is E${max})"
  done
fi

# ---- 3b. bench binaries the docs mention must exist ---------------------
for tok in $(grep -ohE '\bbench_[a-z0-9_]+\b' README.md EXPERIMENTS.md | sort -u); do
  case "$tok" in
    bench_output) continue ;;  # bench_output.txt, the capture — checked next
  esac
  [ -f "bench/${tok}.cpp" ] ||
    fail "docs mention ${tok} but bench/${tok}.cpp does not exist"
done

# EXPERIMENTS.md points readers at the raw capture; it must be committed.
if grep -q 'bench_output\.txt' EXPERIMENTS.md; then
  [ -f bench_output.txt ] ||
    fail "EXPERIMENTS.md references bench_output.txt but it is not in the tree"
fi

# ---- 4. README C++ snippets must compile --------------------------------
# Every ```cpp fence in README.md is stitched into one translation unit:
# #include lines are hoisted to the top, each snippet body becomes a nested
# scope inside main() (nested, not sibling, so later snippets may use
# variables earlier ones declared). Syntax-only: no linking, no running.
if grep -q '^```cpp' README.md; then
  snippet_dir=$(mktemp -d)
  awk '/^```cpp/{inblock=1; n++; next} /^```/{inblock=0; next}
       inblock{print > sprintf("'"$snippet_dir"'/snippet%03d.inc", n)}' README.md
  tu="$snippet_dir/readme_snippets.cpp"
  {
    grep -h '^#include' "$snippet_dir"/snippet*.inc 2>/dev/null | sort -u
    echo "using namespace poly;"
    echo "int main() {"
    opens=0
    for inc in "$snippet_dir"/snippet*.inc; do
      [ -f "$inc" ] || continue
      echo "{"
      opens=$((opens + 1))
      grep -v '^#include' "$inc"
    done
    for _ in $(seq 1 "$opens"); do echo "}"; done
    echo "return 0; }"
  } > "$tu"
  if ! "${CXX:-c++}" -std=c++20 -fsyntax-only -I "$ROOT/src" "$tu" 2> "$snippet_dir/err"; then
    sed 's/^/check_docs:   /' "$snippet_dir/err" >&2
    fail "README.md \`\`\`cpp snippets no longer compile against src/ (see above)"
  fi
  rm -rf "$snippet_dir"
fi

# ---- 5. ctest labels the docs mention must exist -------------------------
for label in $(grep -rhoE 'ctest[^|)]* -L [a-z0-9_-]+' $DOCS 2>/dev/null |
               sed -E 's/.* -L ([a-z0-9_-]+).*/\1/' | sort -u); do
  grep -qE "LABELS[[:space:]]+.*\b${label}\b" tests/CMakeLists.txt ||
    fail "docs tell the reader to run 'ctest -L ${label}' but tests/CMakeLists.txt defines no such label"
done

# ---- 6. bench numbers quoted in docs must match bench_output.txt ---------
# Prose that quotes a benchmark figure carries a machine-readable annotation
# on an adjacent line:
#   <!-- bench-quote: <BenchmarkName> <field> <value> [tol=<pct>] -->
# field is `time` (wall time, in the unit bench_output.txt prints for that
# row), `cpu`, or a google-benchmark counter name (e.g. hot_hit_rate). The
# value is diffed against the committed capture with a relative tolerance:
# default 5%, per-quote override via tol=, global override via
# BENCH_QUOTE_TOL. Re-quoting after a re-run means updating both the prose
# and the annotation — which is the point.
if [ -f bench_output.txt ]; then
  grep -hoE '<!-- bench-quote: [^>]+ -->' README.md EXPERIMENTS.md 2>/dev/null |
  sed -E 's/<!-- bench-quote: (.*) -->/\1/' |
  while read -r name field value rest; do
    tol="${BENCH_QUOTE_TOL:-5}"
    case "$rest" in tol=*) tol="${rest#tol=}" ;; esac
    row=$(grep -E "^${name}[[:space:]]" bench_output.txt | head -1)
    if [ -z "$row" ]; then
      echo "bench-quote: no '${name}' row in bench_output.txt"
      continue
    fi
    case "$field" in
      time) actual=$(echo "$row" | awk '{print $2}') ;;
      cpu)  actual=$(echo "$row" | awk '{print $4}') ;;
      *)    actual=$(echo "$row" | grep -oE "${field}=[0-9.eE+-]+" | head -1 |
                     cut -d= -f2) ;;
    esac
    if [ -z "$actual" ]; then
      echo "bench-quote: '${name}' row has no field '${field}' in bench_output.txt"
      continue
    fi
    ok=$(awk -v q="$value" -v a="$actual" -v t="$tol" 'BEGIN {
      d = q - a; if (d < 0) d = -d
      base = a; if (base < 0) base = -base
      if (base == 0) print (d == 0 ? "yes" : "no")
      else print (d / base * 100 <= t ? "yes" : "no")
    }')
    [ "$ok" = yes ] ||
      echo "bench-quote: docs quote ${name} ${field}=${value} but bench_output.txt has ${actual} (tolerance ${tol}%)"
  done > /tmp/check_docs_bench.$$
  while read -r line; do fail "$line"; done < /tmp/check_docs_bench.$$
  rm -f /tmp/check_docs_bench.$$
fi

# ---- 7. figures quoted beside bench rows must carry an annotation --------
check_unannotated_figures README.md EXPERIMENTS.md

# ---- 8. backticked Type::Member names must exist in src/ headers ---------
check_member_names README.md DESIGN.md EXPERIMENTS.md

# ---- summary ------------------------------------------------------------
if [ "$failures" -gt 0 ]; then
  echo "check_docs: FAILED with $failures stale reference(s)" >&2
  exit 1
fi
echo "check_docs: OK"
