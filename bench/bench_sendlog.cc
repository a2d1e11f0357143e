// SeNDlog macro-benchmark: authenticated distributed reachability (§5.2)
// over ring and grid topologies. Reports wall time, exchanged messages,
// bytes and convergence rounds per topology size and scheme.
//
// Usage: bench_sendlog [max_ring_nodes]   (default 12)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "net/cluster.h"
#include "sendlog/sendlog.h"
#include "util/strings.h"

namespace {

using lbtrust::net::DistributedCluster;
using lbtrust::net::SimCluster;

const char kReachability[] =
    "At S:\n"
    "s1: reachable(S,D) :- neighbor(S,D).\n"
    "s0: reachable(Z,D)@Z :- neighbor(S,Z), reachable(S,D).\n"
    "s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).";

struct Row {
  std::string topology;
  std::string scheme;
  int nodes;
  double seconds;
  size_t messages;
  size_t bytes;
  size_t rounds;
  size_t reachable_pairs;
};

Row RunTopology(const std::string& topology, const std::string& scheme,
                int n, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back(lbtrust::util::StrCat("n", i));
  DistributedCluster::Options opts;
  opts.nodes = names;
  opts.scheme = scheme;
  opts.runtime.rsa_bits = 512;  // keep setup fast; crypto cost is per message
  auto created = SimCluster::Create(std::move(opts));
  if (!created.ok()) std::exit(1);
  SimCluster& cluster = **created;
  if (!lbtrust::sendlog::LoadSendlogOnCluster(&cluster, kReachability).ok()) {
    std::exit(1);
  }
  for (auto [a, b] : edges) {
    using lbtrust::datalog::Value;
    (void)cluster.node(names[static_cast<size_t>(a)])
        ->workspace()
        ->AddFact("neighbor", {Value::Sym(names[static_cast<size_t>(a)]),
                               Value::Sym(names[static_cast<size_t>(b)])});
    (void)cluster.node(names[static_cast<size_t>(b)])
        ->workspace()
        ->AddFact("neighbor", {Value::Sym(names[static_cast<size_t>(b)]),
                               Value::Sym(names[static_cast<size_t>(a)])});
  }

  auto start = std::chrono::steady_clock::now();
  auto stats = cluster.RunToConvergence();
  auto end = std::chrono::steady_clock::now();
  if (!stats.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  size_t pairs = 0;
  for (const std::string& name : names) {
    auto rows = cluster.node(name)->workspace()->Query("reachable(S,D)");
    if (rows.ok()) {
      for (const auto& t : *rows) {
        if (t[0].AsText() == name) ++pairs;
      }
    }
  }
  Row row;
  row.topology = topology;
  row.scheme = scheme;
  row.nodes = n;
  row.seconds = std::chrono::duration<double>(end - start).count();
  row.messages = stats->messages;
  row.bytes = stats->bytes;
  row.rounds = stats->rounds;
  row.reachable_pairs = pairs;
  return row;
}

std::vector<std::pair<int, int>> Ring(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n});
  return edges;
}

std::vector<std::pair<int, int>> Grid(int side) {
  std::vector<std::pair<int, int>> edges;
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      int id = r * side + c;
      if (c + 1 < side) edges.push_back({id, id + 1});
      if (r + 1 < side) edges.push_back({id, id + side});
    }
  }
  return edges;
}

void Print(const Row& r) {
  std::printf("%s,%s,%d,%.3f,%zu,%zu,%zu,%zu\n", r.topology.c_str(),
              r.scheme.c_str(), r.nodes, r.seconds, r.messages, r.bytes,
              r.rounds, r.reachable_pairs);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  int max_ring = argc > 1 ? std::atoi(argv[1]) : 12;
  std::printf("# SeNDlog authenticated reachability\n");
  std::printf(
      "topology,scheme,nodes,seconds,messages,bytes,rounds,"
      "reachable_pairs\n");
  for (const char* scheme : {"plaintext", "hmac", "rsa"}) {
    for (int n = 4; n <= max_ring; n += 4) {
      Print(RunTopology("ring", scheme, n, Ring(n)));
    }
  }
  for (int side = 2; side <= 3; ++side) {
    Print(RunTopology("grid", "hmac", side * side, Grid(side)));
  }
  return 0;
}
