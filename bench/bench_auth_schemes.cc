// §4.1.2 ablation: the cost of reconfiguring the `says` authentication
// scheme. Reports (a) how many clauses change per swap — the paper's
// "only two rules (exp1' and exp3') need to be modified" — and (b) the
// per-message runtime of a fixed-size exchange under each scheme.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "net/cluster.h"
#include "trust/auth_scheme.h"

namespace {

using lbtrust::net::SimCluster;
using lbtrust::trust::AuthScheme;
using lbtrust::trust::HmacScheme;
using lbtrust::trust::PlaintextScheme;
using lbtrust::trust::RsaScheme;
using lbtrust::trust::TrustRuntime;

double TimeExchange(const char* scheme, int messages) {
  lbtrust::net::DistributedCluster::Options opts;
  opts.nodes = {"alice", "bob"};
  opts.scheme = scheme;
  opts.runtime.rsa_bits = 1024;
  auto created = SimCluster::Create(std::move(opts));
  if (!created.ok()) std::exit(1);
  SimCluster& cluster = **created;
  if (!cluster.node("alice")
           ->Load("says(me,bob,[| ping(N). |]) <- msg(N).")
           .ok()) {
    std::exit(1);
  }
  for (int i = 0; i < messages; ++i) {
    (void)cluster.node("alice")->workspace()->AddFact(
        "msg", {lbtrust::datalog::Value::Int(i)});
  }
  auto start = std::chrono::steady_clock::now();
  auto stats = cluster.RunToConvergence();
  auto end = std::chrono::steady_clock::now();
  if (!stats.ok()) std::exit(1);
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  int messages = argc > 1 ? std::atoi(argv[1]) : 2000;

  RsaScheme rsa;
  HmacScheme hmac;
  PlaintextScheme plaintext;

  std::printf("# Scheme reconfiguration cost (clauses changed per swap)\n");
  std::printf("swap,clauses_changed\n");
  std::printf("rsa->hmac,%d\n", AuthScheme::CountDifferingRules(rsa, hmac));
  std::printf("hmac->rsa,%d\n", AuthScheme::CountDifferingRules(hmac, rsa));
  std::printf("rsa->plaintext,%d\n",
              AuthScheme::CountDifferingRules(rsa, plaintext));
  std::printf("plaintext->hmac,%d\n",
              AuthScheme::CountDifferingRules(plaintext, hmac));

  // Live swap on a runtime (includes removing the old clauses).
  TrustRuntime::Options opts;
  opts.principal = "alice";
  opts.rsa_bits = 512;
  auto rt = TrustRuntime::Create(opts);
  if (!rt.ok()) return 1;
  (void)(*rt)->UseScheme(rsa);
  auto changed = (*rt)->UseScheme(hmac);
  std::printf("live_swap_rsa_to_hmac,%d\n", changed.ok() ? *changed : -1);

  std::printf("\n# Exchange runtime at %d messages (s)\n", messages);
  std::printf("scheme,seconds,ms_per_message\n");
  for (const char* scheme : {"rsa", "hmac", "plaintext"}) {
    double secs = TimeExchange(scheme, messages);
    std::printf("%s,%.3f,%.4f\n", scheme, secs, secs / messages * 1000.0);
  }
  return 0;
}
