// Convergence macro-benchmark for the one cluster protocol on its two
// transports: a real 3-node localhost TCP mesh (one DistributedCluster per
// thread, ephemeral ports, wall-clock timers) against the same nodes on an
// in-process SimCluster (in-memory transport, virtual time, one thread).
//
// The workload is the delegation chain scaled by N: node a derives N
// export tuples from go(i) facts and ships them to b, b re-exports every
// learned token to c — 2N tuples cross the wire per run. Reported
// counters: tuples/s through the socket path (items_per_second) and
// wire bytes per shipped tuple (bytes_per_tuple).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "net/distributed.h"
#include "util/strings.h"

namespace {

using lbtrust::net::DistributedCluster;
using lbtrust::net::SimCluster;
using lbtrust::trust::TrustRuntime;

constexpr const char* kNodes[] = {"a", "b", "c"};

lbtrust::util::Status SetupNode(const std::string& name, TrustRuntime* rt,
                                int n) {
  if (name == "a") {
    LB_RETURN_IF_ERROR(rt->Load("says(me,b,[| token(N). |]) <- go(N)."));
    std::string facts;
    for (int i = 0; i < n; ++i) {
      facts += lbtrust::util::StrCat("go(", std::to_string(i), "). ");
    }
    return rt->workspace()->AddFactText(facts);
  }
  if (name == "b") {
    return rt->Load("says(me,c,[| token(N). |]) <- token(N).");
  }
  return lbtrust::util::OkStatus();
}

void BM_DistributedConvergence(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  size_t tuples = 0;
  uint64_t wire_bytes = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<DistributedCluster>> nodes;
    for (const char* name : kNodes) {
      DistributedCluster::Options opts;
      opts.self = name;
      opts.nodes = {"a", "b", "c"};
      opts.scheme = "rsa";
      opts.runtime.rsa_bits = 512;
      opts.poll_interval_ms = 1;
      opts.status_heartbeat_ms = 20;
      opts.linger_ms = 20;  // in-process mesh: no startup connect races
      auto node = DistributedCluster::Create(std::move(opts));
      if (!node.ok()) state.SkipWithError(node.status().ToString().c_str());
      nodes.push_back(std::move(*node));
    }
    for (size_t i = 0; i < nodes.size(); ++i) {
      for (size_t j = 0; j < nodes.size(); ++j) {
        if (i == j) continue;
        (void)nodes[i]->AddPeer(kNodes[j], "127.0.0.1",
                                nodes[j]->listen_port());
      }
      if (!SetupNode(kNodes[i], nodes[i]->runtime(), n).ok()) {
        state.SkipWithError("setup failed");
      }
    }
    std::vector<std::thread> threads;
    std::vector<DistributedCluster::RunStats> stats(nodes.size());
    bool failed = false;
    for (size_t i = 0; i < nodes.size(); ++i) {
      threads.emplace_back([&, i] {
        auto r = nodes[i]->RunToConvergence();
        if (r.ok()) {
          stats[i] = *r;
        } else {
          failed = true;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (failed) state.SkipWithError("convergence failed");
    for (const auto& s : stats) {
      tuples += s.tuples_out;
      wire_bytes += s.transport.tuple_bytes_out;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  if (tuples != 0) {
    state.counters["bytes_per_tuple"] = benchmark::Counter(
        static_cast<double>(wire_bytes) / static_cast<double>(tuples));
  }
}
BENCHMARK(BM_DistributedConvergence)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same nodes in process: the in-memory baseline the socket path's
// overhead is judged against.
void BM_SimulatedConvergence(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  size_t tuples = 0;
  for (auto _ : state) {
    DistributedCluster::Options opts;
    opts.nodes = {"a", "b", "c"};
    opts.scheme = "rsa";
    opts.runtime.rsa_bits = 512;
    auto cluster = SimCluster::Create(std::move(opts));
    if (!cluster.ok()) {
      state.SkipWithError(cluster.status().ToString().c_str());
      break;
    }
    for (const char* name : kNodes) {
      if (!SetupNode(name, (*cluster)->node(name), n).ok()) {
        state.SkipWithError("setup failed");
      }
    }
    auto stats = (*cluster)->RunToConvergence();
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      break;
    }
    tuples += stats->tuples;
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
}
BENCHMARK(BM_SimulatedConvergence)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace
