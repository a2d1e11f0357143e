// §5.2 SeNDlog: authenticated declarative networking on an in-process
// cluster. Two protocols:
//
//   1. reachability — the paper's s1/s2 (plus the bootstrap export s0);
//   2. an authenticated distance-vector variant: nodes exchange signed
//      cost claims; each node aggregates the minimum (bounded hop count
//      keeps the claim space finite).
//
// Every inter-node claim travels through `says`, i.e. it is signed by the
// sender and verified by the receiver under the configured scheme.
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "net/cluster.h"
#include "sendlog/sendlog.h"
#include "util/strings.h"

using lbtrust::datalog::Value;
using lbtrust::net::DistributedCluster;
using lbtrust::net::SimCluster;

namespace {

void Check(const lbtrust::util::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  // Topology: n0 - n1 - n2 - n3 - n4 in a line plus a chord n1 - n3.
  const char* names[] = {"n0", "n1", "n2", "n3", "n4"};
  DistributedCluster::Options opts;
  opts.nodes.assign(std::begin(names), std::end(names));
  opts.scheme = "rsa";
  opts.runtime.rsa_bits = 512;
  auto created = SimCluster::Create(std::move(opts));
  Check(created.status(), "create");
  SimCluster& cluster = **created;

  Check(lbtrust::sendlog::LoadSendlogOnCluster(
            &cluster,
            "At S:\n"
            "s1: reachable(S,D) :- neighbor(S,D).\n"
            "s0: reachable(Z,D)@Z :- neighbor(S,Z), reachable(S,D).\n"
            "s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).\n"
            // Distance vector: cost claims, bounded at 6 hops, minimized
            // locally (aggregation is stratified above the claims).
            "c1: cost(S,D,1) :- neighbor(S,D).\n"
            "c2: cost(Z,D,C+1)@Z :- neighbor(S,Z), cost(S,D,C), C < 6, "
            "Z != D.\n"
            "c3: bestcost(S,D,N) :- agg<<N = min(C)>> cost(S,D,C)."),
        "program");

  // Stage each node's adjacency as one batch; fixpoints run in
  // RunToConvergence.
  std::map<std::string, lbtrust::datalog::Transaction> txns;
  auto add_edge = [&](const char* a, const char* b) {
    auto stage = [&](const char* at, const char* s, const char* d) {
      auto it = txns.find(at);
      if (it == txns.end()) {
        it = txns.emplace(at, cluster.node(at)->Begin()).first;
      }
      it->second.AddFact("neighbor", {Value::Sym(s), Value::Sym(d)});
    };
    stage(a, a, b);
    stage(b, b, a);
  };
  add_edge("n0", "n1");
  add_edge("n1", "n2");
  add_edge("n2", "n3");
  add_edge("n3", "n4");
  add_edge("n1", "n3");
  for (auto& [name, txn] : txns) Check(txn.CommitNoFixpoint(), "edges");

  auto stats = cluster.RunToConvergence();
  if (!stats.ok()) {
    std::fprintf(stderr, "run: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("converged in %zu rounds, %zu authenticated messages "
              "(%zu bytes)\n\n",
              stats->rounds, stats->messages, stats->bytes);

  std::printf("node  reachable-set\n");
  for (const char* n : names) {
    auto rows = cluster.node(n)->workspace()->Query("reachable(S,D)");
    std::string line;
    for (const auto& t : *rows) {
      if (t[0].AsText() != n) continue;
      if (!line.empty()) line += " ";
      line += t[1].AsText();
    }
    std::printf("%-5s %s\n", n, line.c_str());
  }

  std::printf("\nshortest path costs from n0 (distance vector):\n");
  auto rows = cluster.node("n0")->workspace()->Query("bestcost(n0,D,C)");
  for (const auto& t : *rows) {
    std::printf("  n0 -> %s : %lld hop(s)\n", t[1].AsText().c_str(),
                static_cast<long long>(t[2].AsInt()));
  }

  // Crypto work that the exchange actually performed.
  size_t signs = 0, verifies = 0;
  for (const char* n : names) {
    signs += cluster.node(n)->crypto_stats().rsa_signs;
    verifies += cluster.node(n)->crypto_stats().rsa_verifies;
  }
  std::printf("\nRSA signatures: %zu, verifications: %zu\n", signs, verifies);
  return 0;
}
