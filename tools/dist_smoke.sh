#!/usr/bin/env bash
# Multi-process distributed smoke: runs each scenario on a real 3-node
# localhost socket mesh (one lbtrust_node process per node) and diffs every
# node's converged workspace dump against `lbtrust_node --mode=sim`, the
# same DistributedCluster protocol run in one process on the in-memory
# transport (SimCluster, bulk-synchronous schedule). Any byte of
# divergence fails the script.
#
# Each node (sim and socket) also dumps its metrics page
# (DistributedCluster::DumpMetrics). Every counter on it is live: the
# registry is the counters' only storage. The script reconciles the
# per-node counters: tuples_out must match the sim run exactly
# (per-destination dedup makes shipping deterministic), while inbound-side
# counters may exceed it only by transport-level duplicates, which are
# themselves counted. It also checks metric-name parity: each socket node
# registers exactly the series (name plus labels) its sim counterpart does,
# apart from the HTTP server's lbtrust_http_* (sim nodes serve no HTTP), so
# a counter one transport registers and the other does not fails the run.
#
# Live introspection (ISSUE 9): socket nodes serve HTTP on port+3..port+5
# and keep serving after convergence until /quitquitquit. The script
# scrapes every node's /metrics over HTTP and diffs it against the file
# dump (identical modulo uptime and the scrape's own lbtrust_http_*
# counters), sanity-checks /statusz, /explainz and /lintz (must parse;
# lint must be error-free — scenario programs are vetted), then merges
# the per-node Chrome
# traces into ${BUILD_DIR}/dist_smoke_trace_<scenario>.json and asserts at
# least one sender-fixpoint -> receiver-import flow link crossed nodes.
#
# Usage: tools/dist_smoke.sh [build-dir]
#   build-dir  must contain the lbtrust_node binary (defaults to build-ci,
#              matching tools/ci.sh)
# Environment:
#   DIST_SMOKE_BASE_PORT   first listen port (default 46100; each scenario
#                          uses six consecutive ports from there: three
#                          transport, three HTTP)
#   DIST_SMOKE_TIMEOUT_MS  per-node convergence deadline (default 30000)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ci}"
NODE_BIN="${BUILD_DIR}/lbtrust_node"
BASE_PORT="${DIST_SMOKE_BASE_PORT:-46100}"
TIMEOUT_MS="${DIST_SMOKE_TIMEOUT_MS:-30000}"

if [[ ! -x "${NODE_BIN}" ]]; then
  echo "dist_smoke: ${NODE_BIN} not found (build the lbtrust_node target first)" >&2
  exit 1
fi

WORK="$(mktemp -d)"
NODE_PIDS=()
trap 'kill "${NODE_PIDS[@]}" 2>/dev/null || true; rm -rf "${WORK}"' EXIT

run_scenario() {
  local scenario="$1" port="$2"
  local sim="${WORK}/${scenario}/sim" dist="${WORK}/${scenario}/dist"
  mkdir -p "${sim}" "${dist}"

  echo "== dist_smoke: ${scenario} (ports ${port}-$((port + 5)))"
  "${NODE_BIN}" --mode=sim --scenario="${scenario}" --outdir="${sim}"

  local pa=$port pb=$((port + 1)) pc=$((port + 2))
  local ha=$((port + 3)) hb=$((port + 4)) hc=$((port + 5))
  "${NODE_BIN}" --mode=node --self=a --scenario="${scenario}" --port="${pa}" \
    --peers="b=127.0.0.1:${pb},c=127.0.0.1:${pc}" \
    --out="${dist}/a.dump" --metrics-out="${dist}/a.metrics" \
    --http-port="${ha}" --trace-out="${dist}/a.trace.json" \
    --timeout-ms="${TIMEOUT_MS}" &
  local pid_a=$!
  "${NODE_BIN}" --mode=node --self=b --scenario="${scenario}" --port="${pb}" \
    --peers="a=127.0.0.1:${pa},c=127.0.0.1:${pc}" \
    --out="${dist}/b.dump" --metrics-out="${dist}/b.metrics" \
    --http-port="${hb}" --trace-out="${dist}/b.trace.json" \
    --timeout-ms="${TIMEOUT_MS}" &
  local pid_b=$!
  "${NODE_BIN}" --mode=node --self=c --scenario="${scenario}" --port="${pc}" \
    --peers="a=127.0.0.1:${pa},b=127.0.0.1:${pb}" \
    --out="${dist}/c.dump" --metrics-out="${dist}/c.metrics" \
    --http-port="${hc}" --trace-out="${dist}/c.trace.json" \
    --timeout-ms="${TIMEOUT_MS}" &
  local pid_c=$!
  NODE_PIDS+=("${pid_a}" "${pid_b}" "${pid_c}")

  # A converged node writes dump -> metrics -> trace, then serves HTTP
  # until /quitquitquit. The trace file is written last, so its presence
  # means every other file of that node is complete.
  local deadline=$(($(date +%s) + TIMEOUT_MS / 1000 + 10))
  for n in a b c; do
    while [[ ! -s "${dist}/${n}.trace.json" ]]; do
      if (($(date +%s) > deadline)); then
        echo "dist_smoke: ${scenario}: node ${n} did not converge in time" >&2
        return 1
      fi
      sleep 0.1
    done
  done

  # Scrape every node's live /metrics and diff against its file dump:
  # identical except uptime and the scrape's own lbtrust_http_* counters.
  # /statusz must be valid JSON naming the node and both peers. Finally
  # ask each node to quit.
  python3 - "${dist}" "${ha}" "${hb}" "${hc}" <<'EOF'
import json
import sys
import urllib.request

dist_dir = sys.argv[1]
ports = dict(zip("abc", map(int, sys.argv[2:5])))

def get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10) as resp:
        return resp.read().decode()

def stable(page):
    return [line for line in page.splitlines()
            if "lbtrust_uptime_seconds" not in line
            and "lbtrust_http_" not in line]

failed = False
for n, port in ports.items():
    scraped = get(port, "/metrics")
    with open(f"{dist_dir}/{n}.metrics") as f:
        dumped = f.read()
    if stable(scraped) != stable(dumped):
        import difflib
        print(f"dist_smoke: node {n}: /metrics scrape != file dump:",
              file=sys.stderr)
        sys.stderr.writelines(difflib.unified_diff(
            stable(dumped), stable(scraped), "file", "scrape", lineterm=""))
        failed = True
    status = json.loads(get(port, "/statusz"))
    if status["node"] != n or len(status["peers"]) != 2:
        print(f"dist_smoke: node {n}: bad /statusz: {status}",
              file=sys.stderr)
        failed = True
    json.loads(get(port, "/explainz"))  # must parse
    lint = json.loads(get(port, "/lintz"))  # must parse, and be clean:
    if lint["errors"] != 0:                 # scenario programs are vetted
        print(f"dist_smoke: node {n}: /lintz reports errors: {lint}",
              file=sys.stderr)
        failed = True
for n, port in ports.items():
    try:
        get(port, "/quitquitquit")
    except OSError:
        pass  # the node may close before the response is read
sys.exit(1 if failed else 0)
EOF
  echo "== dist_smoke: ${scenario}: live /metrics matches file dump on 3/3 nodes"

  local failed=0
  wait "${pid_a}" || failed=1
  wait "${pid_b}" || failed=1
  wait "${pid_c}" || failed=1
  if [[ "${failed}" -ne 0 ]]; then
    echo "dist_smoke: ${scenario}: a node failed to converge" >&2
    return 1
  fi

  for n in a b c; do
    if ! diff -u "${sim}/${n}.dump" "${dist}/${n}.dump"; then
      echo "dist_smoke: ${scenario}: node ${n} diverged from simulated" >&2
      return 1
    fi
  done
  echo "== dist_smoke: ${scenario}: 3/3 nodes byte-identical to simulated"

  # Counter reconciliation against the sim oracle, per node:
  #   - tuples_out is exact: both paths ship through the same
  #     per-destination dedup, so the count is a function of the converged
  #     store, which the dump diff above already proved identical.
  #   - tuples_in / credential_imports may exceed the oracle (a reconnect
  #     during startup can resend an unacked frame; delivery is idempotent
  #     but counted), never undershoot — and when the transport saw zero
  #     duplicate frames they must be exact too.
  #   - relation cardinality gauges must match exactly.
  #   - the set of series (name plus labels) must match, lbtrust_http_*
  #     aside.
  python3 - "${sim}" "${dist}" <<'EOF'
import sys

sim_dir, dist_dir = sys.argv[1], sys.argv[2]

def scrape(path):
    metrics = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            name, value = line.rsplit(None, 1)
            metrics[name] = int(float(value))
    return metrics

failed = False
def check(node, label, ok, sim_v, dist_v):
    global failed
    if not ok:
        print(f"dist_smoke: node {node}: {label}: sim={sim_v} dist={dist_v}",
              file=sys.stderr)
        failed = True

for n in "abc":
    sim = scrape(f"{sim_dir}/{n}.metrics")
    dist = scrape(f"{dist_dir}/{n}.metrics")
    exact = "lbtrust_node_tuples_out_total"
    check(n, exact, sim[exact] == dist[exact], sim[exact], dist[exact])
    dups = dist.get("lbtrust_transport_duplicate_frames_in_total", 0)
    for counter in ("lbtrust_node_tuples_in_total",
                    "lbtrust_node_credential_imports_total"):
        if dups == 0:
            check(n, counter, sim[counter] == dist[counter], sim[counter],
                  dist[counter])
        else:
            check(n, f"{counter} (>=, {dups} dup frames)",
                  dist[counter] >= sim[counter], sim[counter], dist[counter])
    for name in sim:
        if name.startswith("lbtrust_relation_rows{"):
            check(n, name, sim[name] == dist.get(name), sim[name],
                  dist.get(name))
    sim_series = {s for s in sim if not s.startswith("lbtrust_http_")}
    dist_series = {s for s in dist if not s.startswith("lbtrust_http_")}
    check(n, "series parity (sim only, socket only)",
          sim_series == dist_series, sorted(sim_series - dist_series),
          sorted(dist_series - sim_series))

sys.exit(1 if failed else 0)
EOF
  echo "== dist_smoke: ${scenario}: per-node counters reconcile with sim," \
    "same series on 3/3 nodes"

  # Cross-node trace correlation: merge the three per-node Chrome traces
  # into one file (pid = node), keyed so a sender's ship flow ('s', id
  # "node:wave:seq", stamped on the wire frame) binds to the receiver's
  # stage/import flow ('f', same id) in another process. At least one flow
  # must actually cross nodes, or the correlation plane is dead.
  python3 - "${dist}" "${BUILD_DIR}/dist_smoke_trace_${scenario}.json" <<'EOF'
import json
import sys

dist_dir, out_path = sys.argv[1], sys.argv[2]
merged = []
for pid, node in enumerate("abc", start=1):
    with open(f"{dist_dir}/{node}.trace.json") as f:
        events = json.load(f)["traceEvents"]
    for e in events:
        e["pid"] = pid
    merged.extend(events)
    merged.append({"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                   "args": {"name": f"node {node}"}})

flows = {}
for e in merged:
    if e.get("ph") in ("s", "f"):
        flows.setdefault(e["id"], {}).setdefault(e["ph"], set()).add(e["pid"])
cross = [fid for fid, sides in flows.items()
         if sides.get("s") and sides.get("f")
         and sides["s"] != sides["f"]]
if not cross:
    sys.exit(f"dist_smoke: no cross-node flow link in {len(flows)} flows")

with open(out_path, "w") as f:
    json.dump({"traceEvents": merged}, f)
print(f"dist_smoke: merged trace -> {out_path} "
      f"({len(merged)} events, {len(cross)} cross-node flows)")
EOF
}

run_scenario delegation "${BASE_PORT}"
run_scenario linked "$((BASE_PORT + 10))"
echo "dist_smoke: OK"
