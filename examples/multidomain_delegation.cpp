// Multi-domain federation with linked credentials: three administrative
// domains exchange signed, content-addressed evidence instead of raw
// tuples.
//
//   hq      — issues a base credential naming store managers, plus a
//             linked policy credential delegating discount approval.
//   store   — imports hq's linked set, then issues its own credential
//             (linking hq's, SAFE-style) approving a discount.
//   auditor — imports store's bundle; because credentials are linkable,
//             the single import carries the WHOLE chain of evidence
//             (hq's facts + policy + store's approval) and the auditor's
//             local rules can derive the end-to-end decision.
//
// Along the way the example prints verification-cache statistics: the
// auditor re-imports a bundle it has already seen, and the second import
// performs zero RSA operations.
#include <cstdio>
#include <memory>
#include <string>

#include "cred/store.h"
#include "net/cluster.h"
#include "trust/trust_runtime.h"

using lbtrust::net::SimCluster;
using lbtrust::trust::TrustRuntime;

namespace {

void Check(const lbtrust::util::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Take(lbtrust::util::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

int main() {
  lbtrust::net::DistributedCluster::Options opts;
  opts.nodes = {"hq", "store", "auditor"};
  opts.scheme = "";  // evidence travels as credentials, not scheme exports
  opts.default_placement = false;
  opts.runtime.rsa_bits = 512;
  std::unique_ptr<SimCluster> mesh =
      Take(SimCluster::Create(std::move(opts)), "create cluster");
  SimCluster& cluster = *mesh;

  TrustRuntime* hq = cluster.node("hq");
  TrustRuntime* store = cluster.node("store");
  TrustRuntime* auditor = cluster.node("auditor");

  // hq: base facts and, linked on top, the delegation policy.
  std::string base = Take(hq->Issue("manager(dana,store)."), "issue base");
  std::string policy = Take(
      hq->Issue("mayApprove(M,discount) <- manager(M,store).", {base}),
      "issue policy");

  // Ship hq -> store; the store learns who may approve.
  Check(cluster.ShipCredential("hq", "store", policy), "ship hq->store");
  Check(cluster.RunToConvergence().status(), "run 1");
  std::printf("store knows mayApprove(dana,discount): %zu\n",
              *store->workspace()->Count("mayApprove(dana,discount)"));

  // store: issues its own approval, LINKING hq's policy chain — one
  // content address now names the complete evidence set.
  std::string approval = Take(
      store->Issue("approved(order17,discount,dana).", {policy}),
      "issue approval");
  Check(cluster.ShipCredential("store", "auditor", approval),
        "ship store->auditor");

  // The auditor trusts hq facts relayed through store's bundle only
  // because each credential is signed by ITS OWN issuer.
  Check(auditor->Load(
            "validDiscount(O) <- approved(O,discount,M), "
            "mayApprove(M,discount)."),
        "auditor policy");
  Check(cluster.RunToConvergence().status(), "run 2");
  std::printf("auditor derives validDiscount(order17): %zu\n",
              *auditor->workspace()->Count("validDiscount(order17)"));

  // Re-import the same bundle: content-addressed dedup + memoized
  // verification -> zero additional RSA verifies.
  const auto& stats_before = auditor->credentials()->stats();
  size_t rsa_before = stats_before.rsa_verifies;
  std::string bundle =
      Take(store->ExportCredential(approval), "re-export");
  Check(auditor->ImportCredentials(bundle).status(), "re-import");
  const auto& stats_after = auditor->credentials()->stats();
  std::printf(
      "re-import: rsa_verifies %zu -> %zu (cache hits %zu) — no new RSA\n",
      rsa_before, stats_after.rsa_verifies, stats_after.verify_cache_hits);

  return stats_after.rsa_verifies == rsa_before ? 0 : 1;
}
