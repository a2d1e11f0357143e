#!/usr/bin/env bash
# Same-host A/B of the end-to-end benchmark (BENCHMARK.json): a base
# revision against this checkout, on one workload.
#
# The base revision is exported with `git archive` into a scratch
# directory and both sides build there, so the checkout is left untouched.
# The script then runs PAIRS pairs, alternating which side runs first (base
# first in even pairs), each pair on a fresh seed that both sides share, at
# BENCHMARK.json's run_seconds. It prints one row per end-to-end metric:
# each side's median and quartiles, how many pairs the change won (ties
# count for neither), and a verdict:
#   gain        the change won at least 9/10 of the pairs and its median is
#               better by more than the base's interquartile range; void
#               when the change failed a larger share of its operations
#               than the base, or had a run that was not correct
#   regression  the change's median is worse than the base's by more than
#               the metric's bound (a share of the base median)
#   unresolved  the base's spread (IQR/median) is wider than the bound, and
#               not every change run beats every base run
#   flat        none of the above
# followed by the attempted and failed operations of each side.
#
# Usage: tools/perf_ab.sh <base-rev> <workload> [pairs]   (pairs: 10)
# Environment:
#   PERF_AB_WORK  scratch directory (default: a fresh mktemp -d, removed on
#                 exit); builds there are reused across invocations
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 <base-rev> <workload> [pairs]" >&2
  exit 2
fi
BASE_REV="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
if ! [[ "${PAIRS}" =~ ^[1-9][0-9]*$ ]]; then
  echo "perf_ab: pairs must be a positive integer, got '${PAIRS}'" >&2
  exit 2
fi

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BASE_SHA="$(git -C "${REPO}" rev-parse --verify "${BASE_REV}^{commit}")"
SECONDS_PER_RUN="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "${REPO}/BENCHMARK.json")"
SEED0="$(( $(date +%s) % 100000 ))"

if [[ -n "${PERF_AB_WORK:-}" ]]; then
  WORK="${PERF_AB_WORK}"
  mkdir -p "${WORK}"
else
  WORK="$(mktemp -d)"
  trap 'rm -rf "${WORK}"' EXIT
fi
BASE_SRC="${WORK}/base-${BASE_SHA:0:12}"
if [[ ! -d "${BASE_SRC}" ]]; then
  mkdir -p "${BASE_SRC}.tmp"
  git -C "${REPO}" archive "${BASE_SHA}" | tar -x -C "${BASE_SRC}.tmp"
  mv "${BASE_SRC}.tmp" "${BASE_SRC}"
fi
RESULTS="${WORK}/results-${WORKLOAD}-$$"
mkdir -p "${RESULTS}"

# run <side> <pair> <seed>: one benchmark run; its result line goes to
# ${RESULTS}/<side>-<pair>.json, its build and progress output to stderr.
run() {
  local side="$1" pair="$2" seed="$3" root target
  if [[ "${side}" == base ]]; then
    root="${BASE_SRC}" target="${WORK}/build-base-${BASE_SHA:0:12}"
  else
    root="${REPO}" target="${WORK}/build-change"
  fi
  echo "perf_ab: pair ${pair}: ${side}, seed ${seed}" >&2
  if ! (cd "${root}" && CARGO_TARGET_DIR="${target}" python3 perfbench/run.py \
          --workload "${WORKLOAD}" --seed "${seed}" \
          --seconds "${SECONDS_PER_RUN}" --trace 0) \
        > "${RESULTS}/${side}-${pair}.out"; then
    echo "perf_ab: ${side} run failed (pair ${pair}, seed ${seed})" >&2
    exit 1
  fi
  tail -n 1 "${RESULTS}/${side}-${pair}.out" > "${RESULTS}/${side}-${pair}.json"
}

for ((i = 0; i < PAIRS; ++i)); do
  seed=$((SEED0 + i))
  if ((i % 2 == 0)); then
    run base "${i}" "${seed}"
    run change "${i}" "${seed}"
  else
    run change "${i}" "${seed}"
    run base "${i}" "${seed}"
  fi
done

python3 - "${REPO}/BENCHMARK.json" "${RESULTS}" "${PAIRS}" "${WORKLOAD}" \
  "${BASE_SHA:0:12}" "${SECONDS_PER_RUN}" "${SEED0}" <<'EOF'
import json
import math
import statistics
import sys

bench_path, results, pairs, workload, base_sha, seconds, seed0 = sys.argv[1:]
pairs, seed0 = int(pairs), int(seed0)
bench = json.load(open(bench_path))
runs = {side: [json.load(open(f"{results}/{side}-{i}.json"))
               for i in range(pairs)]
        for side in ("base", "change")}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def cell(median, q1, q3):
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


# Operations each side attempted and failed, and its runs that were correct.
tally = {side: (sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs),
                sum(bool(r["correct"]) for r in rs))
         for side, rs in runs.items()}


def failed_share(side):
    attempted, failed, _ = tally[side]
    return failed / attempted if attempted else 0.0


gain_void = None
if failed_share("change") > failed_share("base"):
    gain_void = "more failures"
elif tally["change"][2] < pairs:
    gain_void = "a run not correct"

print(f"perf_ab: {workload}, base {base_sha} vs this checkout, {pairs} "
      f"pairs of {seconds} s runs, seeds {seed0}..{seed0 + pairs - 1}")
print(f"{'metric':<15} {'unit':<5} {'base median [q1, q3]':<33} "
      f"{'change median [q1, q3]':<33} {'wins':<7} verdict")
need = math.ceil(0.9 * pairs)
for metric in bench["end_to_end"]:
    name, bound = metric["name"], metric["bound"]
    if any(name not in r["metrics"] for side in runs.values() for r in side):
        continue
    base = [r["metrics"][name]["value"] for r in runs["base"]]
    change = [r["metrics"][name]["value"] for r in runs["change"]]
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (c - b) > 0 for c, b in zip(change, base))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - bmed)  # > 0: the change's median is better
    scale = abs(bmed) if bmed != 0 else math.inf
    spread = (bq3 - bq1) / scale if bq3 > bq1 else 0.0
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if wins >= need and gain > bq3 - bq1:
        verdict = "gain" if gain_void is None else f"gain void: {gain_void}"
    elif -gain / scale > bound:
        verdict = f"regression (worse by more than {bound})"
    elif spread > bound and not all_better:
        verdict = f"unresolved (base IQR/median {spread:.2f} > {bound})"
    else:
        verdict = "flat"
    print(f"{name:<15} {metric['unit']:<5} {cell(bmed, bq1, bq3):<33} "
          f"{cell(cmed, cq1, cq3):<33} {f'{wins}/{pairs}':<7} {verdict}")
for side, (attempted, failed, correct) in tally.items():
    print(f"{side}: attempted {attempted}, failed {failed}, "
          f"correct {correct}/{pairs} runs")
EOF
