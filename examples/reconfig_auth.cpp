// §4.1 reconfigurable authentication: the same policy and workload run
// under plaintext, HMAC-SHA1 and RSA-1024 `says`, switching schemes by
// swapping two clauses (exp1/exp3) — the paper's headline flexibility
// claim, with the measured cost of each choice.
#include <chrono>
#include <cstdio>
#include <memory>

#include "net/cluster.h"
#include "trust/auth_scheme.h"

using lbtrust::net::SimCluster;
using lbtrust::trust::AuthScheme;

namespace {

double RunExchange(const char* scheme, int messages, size_t* out_messages) {
  lbtrust::net::DistributedCluster::Options opts;
  opts.nodes = {"alice", "bob"};
  opts.scheme = scheme;
  opts.runtime.rsa_bits = 1024;
  auto created = SimCluster::Create(std::move(opts));
  if (!created.ok()) std::exit(1);
  SimCluster& cluster = **created;
  if (!cluster.node("alice")
           ->Load("says(me,bob,[| reading(N). |]) <- sensor(N).")
           .ok()) {
    std::exit(1);
  }
  // Stage the whole sensor batch and apply it in one shot (the fixpoint
  // happens inside RunToConvergence).
  lbtrust::datalog::Transaction txn = cluster.node("alice")->Begin();
  for (int i = 0; i < messages; ++i) {
    txn.AddFact("sensor", {lbtrust::datalog::Value::Int(i)});
  }
  if (!txn.CommitNoFixpoint().ok()) std::exit(1);
  auto start = std::chrono::steady_clock::now();
  auto stats = cluster.RunToConvergence();
  auto end = std::chrono::steady_clock::now();
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    std::exit(1);
  }
  *out_messages = stats->messages;
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main() {
  const int kMessages = 500;

  // What changes between schemes? Exactly the export/import clauses.
  lbtrust::trust::RsaScheme rsa;
  lbtrust::trust::HmacScheme hmac;
  lbtrust::trust::PlaintextScheme plaintext;
  std::printf("clauses that differ between schemes:\n");
  std::printf("  rsa  vs hmac:      %d (exp1, exp3)\n",
              AuthScheme::CountDifferingRules(rsa, hmac));
  std::printf("  rsa  vs plaintext: %d\n",
              AuthScheme::CountDifferingRules(rsa, plaintext));
  std::printf("  hmac vs plaintext: %d\n\n",
              AuthScheme::CountDifferingRules(hmac, plaintext));

  std::printf("the RSA export rule (exp1):\n  %s\n",
              "export[U2](me,R,S) <- says(me,U2,R), rsaprivkey(me,K), "
              "rsasign(R,S,K).");
  std::printf("the HMAC export rule (exp1'):\n  %s\n\n",
              "export[U2](me,R,S) <- says(me,U2,R), sharedsecret(me,U2,K), "
              "hmacsign(R,K,S).");

  // Same policy, three transports.
  std::printf("%d-message exchange, identical policy:\n", kMessages);
  std::printf("scheme     seconds   ms/message\n");
  for (const char* scheme : {"plaintext", "hmac", "rsa"}) {
    size_t shipped = 0;
    double secs = RunExchange(scheme, kMessages, &shipped);
    std::printf("%-9s  %7.3f   %8.4f   (%zu messages)\n", scheme, secs,
                secs / kMessages * 1000.0, shipped);
  }
  std::printf("\nsecurity/efficiency tradeoff (§2.2): plaintext saves the "
              "crypto,\nHMAC needs pairwise secrets, RSA pays public-key "
              "cost per message.\n");
  return 0;
}
