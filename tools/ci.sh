#!/usr/bin/env bash
# Tier-1 verification: configure, build every target with
# -Wall -Wextra -Werror on the library code, and run the test suite.
#
# Usage: tools/ci.sh [build-dir] [mode]
#   build-dir  defaults to build-ci (build-asan / build-tsan in the
#              sanitizer modes, build-tidy in tidy mode)
#   mode       "tidy" runs the curated clang-tidy profile (.clang-tidy)
#              over the library and tool sources against an exported
#              compilation database; skips gracefully (exit 0 with a
#              notice) when clang-tidy is not installed, so the mode is
#              safe to invoke from environments without LLVM tooling.
#              "tsan" rebuilds with ThreadSanitizer and runs the full
#              ctest suite (the parallel-evaluation tests run the worker
#              pool at threads 2-4, so lazy-index or frozen-read races
#              surface here); any other non-empty second argument (or
#              SANITIZE=1 in the environment) rebuilds with ASan+UBSan.
#              Benches are skipped under sanitizers: sanitizer + benchmark
#              timing is noise.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${2:-${SANITIZE:-}}"
if [[ "${MODE}" == "tidy" ]]; then
  TIDY="$(command -v clang-tidy || true)"
  if [[ -z "${TIDY}" ]]; then
    echo "ci: clang-tidy not installed; skipping tidy mode" >&2
    exit 0
  fi
  BUILD_DIR="${1:-build-tidy}"
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DLBTRUST_BENCH=OFF \
    -DLBTRUST_EXAMPLES=OFF \
    -DLBTRUST_TESTS=OFF
  # The curated profile lives in .clang-tidy; findings are errors here so
  # the CI job fails on regressions, not just prints them.
  mapfile -t TIDY_SOURCES < <(find src tools -name '*.cc' | sort)
  "${TIDY}" -p "${BUILD_DIR}" --warnings-as-errors='*' "${TIDY_SOURCES[@]}"
  echo "ci: clang-tidy clean over ${#TIDY_SOURCES[@]} sources"
  exit 0
fi
if [[ "${MODE}" == "tsan" ]]; then
  BUILD_DIR="${1:-build-tsan}"
  cmake -B "${BUILD_DIR}" -S . \
    -DLBTRUST_WERROR=ON \
    -DLBTRUST_SANITIZE_THREAD=ON \
    -DLBTRUST_BENCH=OFF \
    -DLBTRUST_EXAMPLES=ON
  cmake --build "${BUILD_DIR}" -j "$(nproc)"
  TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error \
    -j "$(nproc)"
  exit 0
fi
if [[ -n "${MODE}" ]]; then
  BUILD_DIR="${1:-build-asan}"
  cmake -B "${BUILD_DIR}" -S . \
    -DLBTRUST_WERROR=ON \
    -DLBTRUST_SANITIZE=ON \
    -DLBTRUST_BENCH=OFF \
    -DLBTRUST_EXAMPLES=ON
  cmake --build "${BUILD_DIR}" -j "$(nproc)"
  ASAN_OPTIONS=strict_string_checks=1:detect_stack_use_after_return=1 \
  UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error \
    -j "$(nproc)"
  exit 0
fi

BUILD_DIR="${1:-build-ci}"
cmake -B "${BUILD_DIR}" -S . \
  -DLBTRUST_WERROR=ON \
  -DLBTRUST_BENCH=ON \
  -DLBTRUST_EXAMPLES=ON
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error -j "$(nproc)"

# Program-lint gates: the static analyzer must (a) pass the golden test
# corpus and the example policies with zero findings, and (b) flag every
# seeded-bad fixture with its expected diagnostic code and a nonzero exit.
LINT="${BUILD_DIR}/lbtrust_lint"
"${LINT}" --corpus --fail-on=warning
"${LINT}" --fail-on=warning examples/policies/*.lb
"${LINT}" --sendlog --fail-on=warning examples/policies/*.sdl
for fixture in tests/lint_fixtures/bad_*.lb; do
  code="$(basename "${fixture}" | sed -E 's/^bad_(L[0-9]+)_.*/\1/')"
  extra=""
  case "${code}" in
    L020|L021) extra="--exports=goal" ;;  # dead-code checks need roots
    L060) extra="--says-check" ;;         # says checks are opt-in
  esac
  # shellcheck disable=SC2086
  if out="$("${LINT}" --fail-on=warning ${extra} "${fixture}")"; then
    echo "ci: lint fixture ${fixture} unexpectedly clean" >&2
    exit 1
  fi
  if ! grep -q "${code}" <<<"${out}"; then
    echo "ci: lint fixture ${fixture} did not produce ${code}:" >&2
    echo "${out}" >&2
    exit 1
  fi
done
echo "ci: lint gates OK (corpus + examples clean, $(ls tests/lint_fixtures/bad_*.lb | wc -l) bad fixtures flagged)"

# The examples that drive an in-process mesh: each must exit 0 (the
# multidomain example also checks that a re-import costs no RSA).
for example in secure_routing multidomain_delegation reconfig_auth; do
  if ! "${BUILD_DIR}/example_${example}"; then
    echo "ci: example_${example} failed" >&2
    exit 1
  fi
done

# Multi-process distributed smoke: a real 3-node localhost socket mesh per
# scenario, every converged dump diffed against the in-process run, and
# every node's metrics dump reconciled against its counters.
tools/dist_smoke.sh "${BUILD_DIR}"

# Trace export validity: run a sim scenario with the span tracer attached,
# then check the Chrome trace-event JSON parses and spans nest properly
# (same-thread spans are RAII scopes, so sorted by start time each span's
# [ts, ts+dur] interval must nest within — never straddle — open ancestors),
# and that every shipped frame's flow start has its finish at the receiver.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "${TRACE_TMP}"' EXIT
"${BUILD_DIR}/lbtrust_node" --mode=sim --scenario=delegation \
  --outdir="${TRACE_TMP}" --trace-out="${TRACE_TMP}/trace.json"
python3 - "${TRACE_TMP}/trace.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace is empty"
names = {e["name"] for e in events}
for expected in ("fixpoint", "stratum", "rule"):
    assert expected in names, f"no '{expected}' span in {sorted(names)}"

by_tid = {}
flows = {}
for e in events:
    if e["ph"] in ("s", "f"):
        flows.setdefault(e["id"], []).append(e["ph"])
        continue
    assert e["ph"] == "X", e
    by_tid.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
assert flows, "no ship -> stage flow in the trace"
for fid, phases in flows.items():
    assert sorted(phases) == ["f", "s"], f"flow {fid}: {phases}"
for tid, spans in by_tid.items():
    spans.sort(key=lambda s: (s[0], -s[1]))
    stack = []
    for start, end in spans:
        while stack and start >= stack[-1]:
            stack.pop()
        if stack and end > stack[-1]:
            sys.exit(f"tid {tid}: span [{start},{end}] straddles "
                     f"enclosing span ending at {stack[-1]}")
        stack.append(end)
print(f"ci: trace OK ({len(events)} events, {len(by_tid)} threads, "
      f"{len(flows)} flows)")
EOF

# Cross-node trace validity: dist_smoke merged each scenario's three
# per-node traces (pid = node) into one Chrome trace. Check the merged
# files are well-formed — X spans still nest per (pid, tid), every flow
# event is a complete s/f pair joining two different nodes, and the
# shipping spans that anchor the flows are present.
for scenario in delegation linked; do
  python3 - "${BUILD_DIR}/dist_smoke_trace_${scenario}.json" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    events = json.load(f)["traceEvents"]
assert events, f"{path}: empty merged trace"

names = {e["name"] for e in events if e.get("ph") == "X"}
for expected in ("fixpoint", "ship", "stage"):
    assert expected in names, f"{path}: no '{expected}' span in {sorted(names)}"

spans_by_lane = {}
flows = {}
for e in events:
    ph = e.get("ph")
    if ph == "X":
        lane = (e["pid"], e["tid"])
        spans_by_lane.setdefault(lane, []).append((e["ts"], e["ts"] + e["dur"]))
    elif ph in ("s", "f"):
        assert e.get("cat") == "flow" and e.get("id"), e
        flows.setdefault(e["id"], {}).setdefault(ph, set()).add(e["pid"])
    else:
        assert ph == "M", f"{path}: unexpected phase {e}"

for lane, spans in spans_by_lane.items():
    spans.sort(key=lambda s: (s[0], -s[1]))
    stack = []
    for start, end in spans:
        while stack and start >= stack[-1]:
            stack.pop()
        if stack and end > stack[-1]:
            sys.exit(f"{path}: lane {lane}: span [{start},{end}] straddles "
                     f"enclosing span ending at {stack[-1]}")
        stack.append(end)

cross = 0
for fid, sides in flows.items():
    assert sides.get("s"), f"{path}: flow {fid} has no start"
    if sides.get("f") and sides["s"] != sides["f"]:
        cross += 1
assert cross, f"{path}: no flow joins two nodes"
print(f"ci: merged {path.rsplit('/', 1)[-1]} OK "
      f"({len(events)} events, {cross} cross-node flows)")
EOF
done
