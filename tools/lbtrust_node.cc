// Driver for the distributed runtime: one cluster protocol
// (DistributedCluster), two transports.
//
// Two modes sharing one scenario library, so a shell script can compare a
// real multi-process mesh with the in-process one:
//
//   lbtrust_node --mode=sim --scenario=delegation --outdir=DIR
//       Runs all three nodes in this process on a SimCluster (in-memory
//       transport, bulk-synchronous schedule, virtual time) and writes one
//       canonical dump and one metrics page per node to DIR/<node>.dump
//       and DIR/<node>.metrics.
//
//   lbtrust_node --mode=node --self=a --scenario=delegation
//       --port=47101 --peers=b=127.0.0.1:47102,c=127.0.0.1:47103
//       --out=DIR/a.dump   (one command line)
//       Runs ONE DistributedCluster node in this process, converges with
//       the mesh over TCP, and writes this node's canonical dump.
//
// Dumps are written with sort_rules=true on both paths; a converged socket
// mesh must produce byte-identical files to the sim run (tools/dist_smoke.sh
// diffs them).
//
// Scenarios:
//   delegation  two-hop re-export chain a -> b -> c under the rsa scheme
//   linked      linked-credential shipping a -> b, relay to c, under the
//               plaintext scheme (the rsa/hmac import constraints demand a
//               signed export tuple per says fact, which credential-imported
//               facts do not have)

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "datalog/dump.h"
#include "net/cluster.h"
#include "net/distributed.h"
#include "net/event_loop.h"
#include "obs/http_exporter.h"
#include "obs/trace.h"
#include "trust/trust_runtime.h"
#include "util/log.h"
#include "util/status.h"
#include "util/strings.h"

namespace {

using lbtrust::net::DistributedCluster;
using lbtrust::net::SimCluster;
using lbtrust::trust::TrustRuntime;
using lbtrust::util::Result;
using lbtrust::util::Status;

constexpr const char* kNodes[] = {"a", "b", "c"};

/// Set by the SIGUSR1 handler; the run loop's on_tick drains it by writing
/// a fresh metrics dump (async-signal-safe: the handler only flips a flag).
volatile std::sig_atomic_t g_dump_requested = 0;

void OnDumpSignal(int) { g_dump_requested = 1; }

/// Flipped by the /quitquitquit handler (which runs on the loop thread, so
/// a plain bool suffices); ends the post-convergence HTTP serve window.
bool g_quit_requested = false;

struct Args {
  std::string mode;         // "sim" | "node"
  std::string scenario;     // "delegation" | "linked"
  std::string self;         // node mode: this node's name
  std::string peers;        // node mode: name=host:port,name=host:port
  std::string out;          // node mode: dump file
  std::string outdir;       // sim mode: dump directory
  std::string metrics_out;  // node mode: Prometheus-text metrics dump file
  std::string trace_out;    // Chrome trace-event JSON export file
  uint16_t port = 0;        // node mode: listen port
  int http_port = -1;       // node mode: introspection server (-1 = off)
  int timeout_ms = 30000;   // node mode: convergence deadline
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto take = [&](const char* key, std::string* out) {
      std::string prefix = std::string("--") + key + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(prefix.size());
      return true;
    };
    std::string value;
    if (take("mode", &args->mode) || take("scenario", &args->scenario) ||
        take("self", &args->self) || take("peers", &args->peers) ||
        take("out", &args->out) || take("outdir", &args->outdir) ||
        take("metrics-out", &args->metrics_out) ||
        take("trace-out", &args->trace_out)) {
      continue;
    }
    if (take("port", &value)) {
      args->port = static_cast<uint16_t>(std::strtoul(value.c_str(), nullptr, 10));
      continue;
    }
    if (take("http-port", &value)) {
      args->http_port = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
      continue;
    }
    if (take("timeout-ms", &value)) {
      args->timeout_ms = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
      continue;
    }
    std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
    return false;
  }
  return true;
}

std::string SchemeFor(const std::string& scenario) {
  return scenario == "linked" ? "plaintext" : "rsa";
}

// Per-node program load; identical for the sim and socket paths.
Status SetupNode(const std::string& scenario, const std::string& name,
                 TrustRuntime* rt) {
  if (scenario == "delegation") {
    if (name == "a") {
      LB_RETURN_IF_ERROR(rt->Load("says(me,b,[| token(N). |]) <- go(N)."));
      return rt->workspace()->AddFactText("go(1). go(2).");
    }
    if (name == "b") {
      return rt->Load("says(me,c,[| token(N). |]) <- token(N).");
    }
    return lbtrust::util::OkStatus();
  }
  if (scenario == "linked") {
    if (name == "b") {
      return rt->Load("says(me,c,[| holds(P,F). |]) <- canread(P,F).");
    }
    return lbtrust::util::OkStatus();
  }
  return lbtrust::util::InvalidArgument(
      lbtrust::util::StrCat("unknown scenario '", scenario, "'"));
}

// Linked scenario only: node a issues the grant + linked policy rule and
// returns the root hash to ship to b.
Result<std::string> IssueLinked(TrustRuntime* a) {
  LB_ASSIGN_OR_RETURN(std::string base, a->Issue("grant(carol,file1,read)."));
  return a->Issue("canread(P,F) <- grant(P,F,read).", {base});
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return lbtrust::util::Internal(
        lbtrust::util::StrCat("cannot open '", path, "' for writing"));
  }
  out << content;
  out.close();
  if (!out) {
    return lbtrust::util::Internal(
        lbtrust::util::StrCat("short write to '", path, "'"));
  }
  return lbtrust::util::OkStatus();
}

Status RunSim(const Args& args) {
  if (args.outdir.empty()) {
    return lbtrust::util::InvalidArgument("--mode=sim needs --outdir=DIR");
  }
  DistributedCluster::Options opts;
  opts.nodes = {"a", "b", "c"};
  opts.scheme = SchemeFor(args.scenario);
  opts.runtime.rsa_bits = 512;
  LB_ASSIGN_OR_RETURN(std::unique_ptr<SimCluster> cluster,
                      SimCluster::Create(std::move(opts)));
  // One tracer across all sim nodes: everything runs on this thread, so
  // fixpoint/stratum/rule spans from the three workspaces nest in one
  // per-thread buffer.
  lbtrust::obs::Tracer tracer;
  if (!args.trace_out.empty()) {
    for (const char* n : kNodes) {
      cluster->node(n)->workspace()->SetTracer(&tracer);
    }
  }
  for (const char* n : kNodes) {
    LB_RETURN_IF_ERROR(SetupNode(args.scenario, n, cluster->node(n)));
  }
  if (args.scenario == "linked") {
    LB_ASSIGN_OR_RETURN(std::string hash, IssueLinked(cluster->node("a")));
    LB_RETURN_IF_ERROR(cluster->ShipCredential("a", "b", hash));
  }
  LB_ASSIGN_OR_RETURN(SimCluster::RunStats stats,
                      cluster->RunToConvergence());
  for (const char* n : kNodes) {
    std::string dump = lbtrust::datalog::DumpWorkspace(
        *cluster->node(n)->workspace(), /*max_rows=*/0, /*sort_rules=*/true);
    LB_RETURN_IF_ERROR(
        WriteFile(lbtrust::util::StrCat(args.outdir, "/", n, ".dump"), dump));
    // The in-process half of dist_smoke.sh's counter reconciliation: the
    // same page the socket nodes dump via --metrics-out.
    LB_RETURN_IF_ERROR(
        WriteFile(lbtrust::util::StrCat(args.outdir, "/", n, ".metrics"),
                  cluster->member(n)->DumpMetrics()));
  }
  if (!args.trace_out.empty()) {
    LB_RETURN_IF_ERROR(WriteFile(args.trace_out, tracer.ExportJson()));
  }
  std::fprintf(stderr, "sim: rounds=%zu messages=%zu tuples=%zu bytes=%zu\n",
               stats.rounds, stats.messages, stats.tuples, stats.bytes);
  return lbtrust::util::OkStatus();
}

Status RunNode(const Args& args) {
  if (args.self.empty() || args.out.empty() || args.port == 0) {
    return lbtrust::util::InvalidArgument(
        "--mode=node needs --self=NAME --port=PORT --out=FILE");
  }
  // Tag every log line with the node name: interleaved stderr from the
  // three dist_smoke processes stays attributable.
  lbtrust::util::SetLogNodeTag(args.self);
  DistributedCluster::Options opts;
  opts.self = args.self;
  opts.nodes = {"a", "b", "c"};
  opts.listen_port = args.port;
  opts.http_port = args.http_port;
  opts.scheme = SchemeFor(args.scenario);
  opts.runtime.rsa_bits = 512;
  opts.convergence_timeout_ms = args.timeout_ms;
  opts.poll_interval_ms = 2;
  opts.status_heartbeat_ms = 20;
  opts.transport.reconnect_backoff_min_ms = 5;
  LB_ASSIGN_OR_RETURN(std::unique_ptr<DistributedCluster> node,
                      DistributedCluster::Create(std::move(opts)));
  DistributedCluster* node_ptr = node.get();
  if (node->http() != nullptr) {
    // Ends the post-convergence serve window below; dist_smoke.sh hits it
    // on every node once it has scraped /metrics.
    node->http()->Handle("/quitquitquit", [] {
      g_quit_requested = true;
      lbtrust::obs::HttpExporter::Response r;
      r.body = "bye\n";
      return r;
    });
    std::fprintf(stderr, "node %s: http on port %u\n", args.self.c_str(),
                 node->http_port());
  }
  lbtrust::obs::Tracer tracer;
  if (!args.trace_out.empty()) {
    node->runtime()->workspace()->SetTracer(&tracer);
  }
  if (!args.metrics_out.empty()) {
    // SIGUSR1 requests a mid-run metrics dump; the handler only flips a
    // flag and the run loop's tick callback does the actual write.
    std::signal(SIGUSR1, OnDumpSignal);
    node->set_on_tick([node_ptr, &args]() {
      if (g_dump_requested == 0) return;
      g_dump_requested = 0;
      Status st = WriteFile(args.metrics_out, node_ptr->DumpMetrics());
      if (!st.ok()) {
        std::fprintf(stderr, "metrics dump failed: %s\n",
                     st.ToString().c_str());
      }
    });
  }

  // --peers=b=127.0.0.1:47102,c=127.0.0.1:47103
  for (const std::string& spec : lbtrust::util::Split(args.peers, ',')) {
    if (spec.empty()) continue;
    size_t eq = spec.find('=');
    size_t colon = spec.rfind(':');
    if (eq == std::string::npos || colon == std::string::npos || colon < eq) {
      return lbtrust::util::InvalidArgument(
          lbtrust::util::StrCat("malformed peer spec '", spec, "'"));
    }
    std::string name = spec.substr(0, eq);
    std::string host = spec.substr(eq + 1, colon - eq - 1);
    uint16_t port = static_cast<uint16_t>(
        std::strtoul(spec.c_str() + colon + 1, nullptr, 10));
    LB_RETURN_IF_ERROR(node->AddPeer(name, host, port));
  }

  LB_RETURN_IF_ERROR(SetupNode(args.scenario, args.self, node->runtime()));
  if (args.scenario == "linked" && args.self == "a") {
    LB_ASSIGN_OR_RETURN(std::string hash, IssueLinked(node->runtime()));
    LB_RETURN_IF_ERROR(node->ShipCredential("b", hash));
  }

  LB_ASSIGN_OR_RETURN(DistributedCluster::RunStats stats,
                      node->RunToConvergence());
  std::string dump = lbtrust::datalog::DumpWorkspace(
      *node->runtime()->workspace(), /*max_rows=*/0, /*sort_rules=*/true);
  LB_RETURN_IF_ERROR(WriteFile(args.out, dump));
  if (!args.metrics_out.empty()) {
    LB_RETURN_IF_ERROR(WriteFile(args.metrics_out, node->DumpMetrics()));
  }
  if (!args.trace_out.empty()) {
    LB_RETURN_IF_ERROR(WriteFile(args.trace_out, tracer.ExportJson()));
  }
  std::fprintf(stderr,
               "node %s: fixpoints=%zu tuples_in=%zu tuples_out=%zu "
               "bytes_in=%llu bytes_out=%llu frames_in=%llu frames_out=%llu "
               "retries=%llu reconnects=%llu\n",
               args.self.c_str(), stats.fixpoints, stats.tuples_in,
               stats.tuples_out,
               static_cast<unsigned long long>(stats.transport.bytes_in),
               static_cast<unsigned long long>(stats.transport.bytes_out),
               static_cast<unsigned long long>(stats.transport.frames_in),
               static_cast<unsigned long long>(stats.transport.frames_out),
               static_cast<unsigned long long>(stats.transport.retries),
               static_cast<unsigned long long>(stats.transport.reconnects));
  if (node_ptr->http() != nullptr) {
    // Post-convergence serve window: the dump/metrics files above are the
    // script's readiness signal, after which it scrapes /metrics (and
    // friends) over HTTP and finally requests /quitquitquit. The exporter
    // shares the transport's loop, so polling it here drives the server.
    const int64_t deadline =
        lbtrust::net::EventLoop::NowMs() + args.timeout_ms;
    while (!g_quit_requested &&
           lbtrust::net::EventLoop::NowMs() < deadline) {
      node_ptr->transport()->loop()->PollOnce(20);
      node_ptr->http()->Housekeep();
    }
  }
  return lbtrust::util::OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.scenario != "delegation" && args.scenario != "linked") {
    std::fprintf(stderr, "--scenario must be 'delegation' or 'linked'\n");
    return 2;
  }
  Status st = args.mode == "sim"   ? RunSim(args)
              : args.mode == "node" ? RunNode(args)
                                    : lbtrust::util::InvalidArgument(
                                          "--mode must be 'sim' or 'node'");
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
