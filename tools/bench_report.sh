#!/usr/bin/env bash
# Runs the engine/relation/distributed/observability/crypto benchmarks and
# merges the results into one machine-readable "name -> ns/op" JSON, so the
# performance trajectory is diffable across PRs (BENCH_PR9.json is the
# current capture — it adds the live-introspection series
# BM_FixpointWithHttpExporter/{64,128}: the instrumented TC fixpoint with
# an idle HTTP exporter attached and polled per wave, gating that the
# /metrics endpoint is free when nobody scrapes; the thread-scaling series
# BM_TransitiveClosureSemiNaive/128/{1,2,4} and
# BM_TransitiveClosureWide/24/{1,2,4} carry forward; CI regenerates the
# report on every push and uploads it as an artifact).
#
# Usage: tools/bench_report.sh [build-dir] [out-json]
#   build-dir  defaults to build-bench (configured Release + benches if it
#              does not exist yet; an existing build dir is reused as-is,
#              so you can point it at a RelWithDebInfo tree for
#              apples-to-apples before/after runs)
#   out-json   defaults to bench_report.json in build-dir; name a
#              BENCH_PR*.json capture explicitly to replace it
# Environment:
#   BENCH_BUILD_TYPE   CMake build type for a fresh build dir (Release)
#   BENCH_TARGETS      space-separated bench binaries (bench_engine
#                      bench_relation bench_dist bench_obs bench_crypto)
#   BENCH_MIN_TIME     --benchmark_min_time per bench (0.2)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
OUT="${2:-${BUILD_DIR}/bench_report.json}"
TARGETS=(${BENCH_TARGETS:-bench_engine bench_relation bench_dist bench_obs bench_crypto})
MIN_TIME="${BENCH_MIN_TIME:-0.2}"

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE="${BENCH_BUILD_TYPE:-Release}" \
    -DLBTRUST_BENCH=ON \
    -DLBTRUST_TESTS=OFF \
    -DLBTRUST_EXAMPLES=OFF
fi
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${TARGETS[@]}"

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT
for bench in "${TARGETS[@]}"; do
  echo "== ${bench} =="
  "${BUILD_DIR}/${bench}" \
    --benchmark_format=json \
    --benchmark_min_time="${MIN_TIME}" > "${TMP}/${bench}.json"
done

python3 - "${OUT}" "${BUILD_DIR}" "${TMP}"/*.json <<'EOF'
import json
import sys

out_path, build_dir = sys.argv[1], sys.argv[2]
scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
merged = {}
for path in sys.argv[3:]:
    with open(path) as f:
        report = json.load(f)
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        ns = bench["real_time"] * scale[bench.get("time_unit", "ns")]
        merged[bench["name"]] = round(ns, 1)

build_type = ""
with open(f"{build_dir}/CMakeCache.txt") as f:
    for line in f:
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1].strip()
out = {
    "unit": "ns/op",
    "build_type": build_type or "RelWithDebInfo (default)",
    "benchmarks": merged,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path} ({len(merged)} benchmarks)")
EOF
