// Figure 2 reproduction: "Execution Time over Number of Messages".
//
// Two principals, alice and bob, run a Binder-style exchange: alice exports
// N authenticated facts to bob through `says`; each message is signed on
// export and verified on import (§6). Series: RSA-1024, HMAC-SHA1,
// plaintext. The harness prints one row per message count, mirroring the
// paper's x-axis (0..10k messages), plus normalized per-message costs.
//
// Usage: bench_fig2_messages [max_messages] [step]
//   defaults: 10000 1000 (the paper's sweep)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "net/cluster.h"
#include "util/strings.h"

namespace {

using lbtrust::net::DistributedCluster;
using lbtrust::net::SimCluster;
using lbtrust::trust::TrustRuntime;

double RunOnce(const std::string& scheme, int messages) {
  DistributedCluster::Options opts;
  opts.nodes = {"alice", "bob"};
  opts.scheme = scheme;
  opts.runtime.rsa_bits = 1024;  // the paper's key size
  auto created = SimCluster::Create(std::move(opts));
  if (!created.ok()) {
    std::fprintf(stderr, "node setup failed: %s\n",
                 created.status().ToString().c_str());
    std::exit(1);
  }
  SimCluster& cluster = **created;
  TrustRuntime* alice = cluster.node("alice");
  // The exchange workload: one exported (and thus signed + verified)
  // message per msg(N) fact.
  if (auto st = alice->Load("says(me,bob,[| ping(N). |]) <- msg(N).");
      !st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  for (int i = 0; i < messages; ++i) {
    auto st = alice->workspace()->AddFact(
        "msg", {lbtrust::datalog::Value::Int(i)});
    if (!st.ok()) std::exit(1);
  }

  auto start = std::chrono::steady_clock::now();
  auto stats = cluster.RunToConvergence();
  auto end = std::chrono::steady_clock::now();
  if (!stats.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  // Exported tuples batch into per-(node, relation) block messages; the
  // per-tuple count is what the workload pins down.
  if (static_cast<int>(stats->tuples) != messages) {
    std::fprintf(stderr, "expected %d tuples, shipped %zu\n", messages,
                 stats->tuples);
    std::exit(1);
  }
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  int max_messages = argc > 1 ? std::atoi(argv[1]) : 10000;
  int step = argc > 2 ? std::atoi(argv[2]) : 1000;
  if (max_messages <= 0 || step <= 0) {
    std::fprintf(stderr, "usage: %s [max_messages] [step]\n", argv[0]);
    return 1;
  }

  const char* schemes[] = {"rsa", "hmac", "plaintext"};
  std::printf("# Figure 2: Execution Time (s) over Number of Messages\n");
  std::printf("# workload: alice exports N authenticated facts to bob "
              "(sign on export, verify on import)\n");
  std::printf("messages,rsa,hmac,plaintext\n");

  std::vector<std::vector<double>> series(3);
  for (int n = 0; n <= max_messages; n += step) {
    double t[3];
    for (int s = 0; s < 3; ++s) {
      t[s] = RunOnce(schemes[s], n);
      series[static_cast<size_t>(s)].push_back(t[s]);
    }
    std::printf("%d,%.3f,%.3f,%.3f\n", n, t[0], t[1], t[2]);
    std::fflush(stdout);
  }

  // Shape checks the paper's Figure 2 exhibits: linear growth per scheme
  // and RSA >> HMAC > plaintext ordering.
  auto per_message = [&](size_t s) {
    if (series[s].size() < 2) return 0.0;
    double last = series[s].back();
    double first = series[s].front();
    return (last - first) / max_messages * 1000.0;  // ms per message
  };
  std::printf("\n# per-message cost (ms): rsa=%.3f hmac=%.3f "
              "plaintext=%.3f\n",
              per_message(0), per_message(1), per_message(2));
  double hmac = per_message(1), plain = per_message(2);
  if (hmac > 0 && plain > 0) {
    std::printf("# ratios: rsa/hmac=%.1fx  rsa/plaintext=%.1fx  "
                "hmac/plaintext=%.2fx\n",
                per_message(0) / hmac, per_message(0) / plain, hmac / plain);
  }
  return 0;
}
