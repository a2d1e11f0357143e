// Credential-subsystem bench: the two performance levers of linked,
// content-addressed evidence — (1) memoized signature verification (verify
// once per content hash; every re-import of the same credential set skips
// RSA entirely) and (2) batched import (a whole linked set materializes
// through one Transaction + one delta-aware fixpoint).
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "cred/credential.h"
#include "cred/store.h"
#include "trust/trust_runtime.h"
#include "util/strings.h"

namespace {

using lbtrust::cred::Credential;
using lbtrust::cred::CredentialStore;
using lbtrust::cred::SignCredential;
using lbtrust::trust::TrustRuntime;

std::unique_ptr<TrustRuntime> MakeRuntime(const std::string& name) {
  TrustRuntime::Options opts;
  opts.principal = name;
  opts.rsa_bits = 1024;  // the paper's key size: realistic verify cost
  auto rt = TrustRuntime::Create(opts);
  if (!rt.ok()) std::abort();
  return std::move(*rt);
}

TrustRuntime& Issuer() {
  static TrustRuntime* rt = MakeRuntime("alice").release();
  return *rt;
}

Credential MakeCredential(int i) {
  Credential cred;
  cred.issuer = "alice";
  cred.key_fingerprint =
      lbtrust::crypto::KeyFingerprint(Issuer().keypair().public_key);
  cred.payload = lbtrust::util::StrCat("grant(p", i, ",file", i, ",read).");
  if (!SignCredential(&cred, Issuer().keypair().private_key).ok()) {
    std::abort();
  }
  return cred;
}

/// Cold verification: a fresh store every iteration, so each
/// VerifySignature runs full RSA.
void BM_VerifyColdRsa(benchmark::State& state) {
  Credential cred = MakeCredential(0);
  lbtrust::obs::MetricsRegistry metrics;
  for (auto _ : state) {
    CredentialStore store(&metrics);
    std::string hash = store.Put(cred);
    auto ok = store.VerifySignature(hash, Issuer().keypair().public_key);
    if (!ok.ok() || !*ok) std::abort();
    benchmark::DoNotOptimize(hash);
  }
}
BENCHMARK(BM_VerifyColdRsa);

/// Cache-hit verification: the store has seen the credential before, so
/// the check is a map lookup — the ≥10x (in practice orders of magnitude)
/// speedup that makes repeated imports of shared credential sets cheap.
void BM_VerifyCacheHit(benchmark::State& state) {
  Credential cred = MakeCredential(0);
  lbtrust::obs::MetricsRegistry metrics;
  CredentialStore store(&metrics);
  std::string hash = store.Put(cred);
  auto first = store.VerifySignature(hash, Issuer().keypair().public_key);
  if (!first.ok() || !*first) std::abort();
  for (auto _ : state) {
    auto ok = store.VerifySignature(hash, Issuer().keypair().public_key);
    benchmark::DoNotOptimize(*ok);
  }
}
BENCHMARK(BM_VerifyCacheHit);

/// Batched import throughput: one bundle carrying a chain of N linked
/// credentials lands in the receiver as one transaction + one fixpoint.
/// Counters report credentials/second.
void BM_ImportBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto& alice = Issuer();
  std::vector<std::string> links;
  std::string root;
  for (int i = 0; i < n; ++i) {
    auto hash = alice.Issue(
        lbtrust::util::StrCat("grant(p", i, ",file", i, ",read)."),
        links.empty() ? std::vector<std::string>{}
                      : std::vector<std::string>{links.back()});
    if (!hash.ok()) std::abort();
    links.push_back(*hash);
    root = *hash;
  }
  auto bundle = alice.ExportCredential(root);
  if (!bundle.ok()) std::abort();
  std::unique_ptr<TrustRuntime> bob;
  for (auto _ : state) {
    // Receiver construction and destruction both stay untimed.
    state.PauseTiming();
    bob = MakeRuntime("bob");
    if (!bob->AddPeer("alice", alice.keypair().public_key).ok()) {
      std::abort();
    }
    state.ResumeTiming();
    auto stats = bob->ImportCredentials(*bundle);
    if (!stats.ok() || stats->credentials != static_cast<size_t>(n)) {
      std::abort();
    }
    state.PauseTiming();
    bob.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ImportBatch)->Arg(4)->Arg(16)->Arg(64);

/// Warm re-import of the same bundle: content dedup + verification cache
/// mean no RSA at all; the cost is pure store/fixpoint work.
void BM_ReimportWarm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto& alice = Issuer();
  std::vector<std::string> links;
  std::string root;
  for (int i = 0; i < n; ++i) {
    auto hash = alice.Issue(
        lbtrust::util::StrCat("warm(p", i, ",file", i, ",read)."),
        links.empty() ? std::vector<std::string>{}
                      : std::vector<std::string>{links.back()});
    if (!hash.ok()) std::abort();
    links.push_back(*hash);
    root = *hash;
  }
  auto bundle = alice.ExportCredential(root);
  if (!bundle.ok()) std::abort();
  auto bob = MakeRuntime("bob");
  if (!bob->AddPeer("alice", alice.keypair().public_key).ok()) std::abort();
  if (!bob->ImportCredentials(*bundle).ok()) std::abort();
  for (auto _ : state) {
    auto stats = bob->ImportCredentials(*bundle);
    if (!stats.ok()) std::abort();
  }
  if (bob->credentials()->stats().rsa_verifies !=
      static_cast<size_t>(n)) {
    std::abort();  // warm path must never have re-run RSA
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReimportWarm)->Arg(16);

}  // namespace
