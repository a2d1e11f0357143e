// End-to-end observability: the workspace-owned metrics registry and span
// tracer, exercised through real fixpoints, commits, prepared queries and a
// trust runtime. Asserts the acceptance surface of the unified registry:
// per-rule stats, fixpoint/commit latency histograms and credential/crypto
// counters all appear in one DumpMetrics() page.
#include <string>

#include <gtest/gtest.h>

#include "datalog/workspace.h"
#include "obs/trace.h"
#include "trust/trust_runtime.h"
#include "util/strings.h"

namespace lbtrust {
namespace {

using datalog::Workspace;

constexpr const char* kClosure =
    "edge(1,2). edge(2,3). edge(3,4).\n"
    "path(X,Y) <- edge(X,Y).\n"
    "path(X,Z) <- path(X,Y), edge(Y,Z).\n";

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(ObsWorkspaceTest, FixpointPopulatesEngineMetrics) {
  Workspace ws;
  ASSERT_NE(ws.metrics(), nullptr);
  ASSERT_TRUE(ws.Load(kClosure).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());

  std::string page = ws.DumpMetrics();
  // Per-rule counters, labeled by head predicate and rule id.
  EXPECT_TRUE(Contains(page, "lbtrust_rule_evals_total{head=\"path\""))
      << page;
  EXPECT_TRUE(Contains(page, "lbtrust_rule_tuples_derived_total{head=\"path\""))
      << page;
  EXPECT_TRUE(Contains(page, "lbtrust_rule_probes_total{head=\"path\""))
      << page;
  // Per-relation probe/hit counters (selectivity feed).
  EXPECT_TRUE(Contains(page, "lbtrust_relation_probes_total{relation=\"edge\"}"))
      << page;
  EXPECT_TRUE(
      Contains(page, "lbtrust_relation_probe_hits_total{relation=\"edge\"}"))
      << page;
  // Global evaluation counters and the fixpoint path split.
  EXPECT_GT(ws.metrics()->GetCounter("lbtrust_tuples_derived_total")->value(),
            0u);
  EXPECT_GT(ws.metrics()->GetCounter("lbtrust_eval_rounds_total")->value(),
            0u);
  EXPECT_GT(
      ws.metrics()->GetCounter("lbtrust_fixpoints_total", "path=\"full\"")
          ->value(),
      0u);
  EXPECT_GT(
      ws.metrics()->GetHistogram("lbtrust_fixpoint_latency_microseconds")
          ->count(),
      0u);
  // Relation cardinality gauges refresh at dump time: path is the full
  // transitive closure of the 4-node chain (3+2+1 = 6 rows).
  EXPECT_TRUE(Contains(page, "lbtrust_relation_rows{relation=\"path\"} 6\n"))
      << page;
}

TEST(ObsWorkspaceTest, CommitLatencyHistogramRecords) {
  Workspace ws;
  ASSERT_TRUE(ws.Load(kClosure).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());

  // Transaction commit (EDB-only: rides the delta path) records commit
  // latency and bumps the delta fixpoint counter.
  auto txn = ws.Begin();
  txn.AddFactText("edge(4,5).");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_GE(ws.metrics()
                ->GetHistogram("lbtrust_commit_latency_microseconds")
                ->count(),
            1u);
  EXPECT_GE(
      ws.metrics()->GetCounter("lbtrust_fixpoints_total", "path=\"delta\"")
          ->value(),
      1u);
  EXPECT_TRUE(Contains(ws.DumpMetrics(),
                       "lbtrust_commit_latency_microseconds_count"));
}

// perfbench's ReadCounters looks these series up by name and reads 0 when
// one is missing, so each must be registered once the engine has run a
// full fixpoint, a delta commit and a prepared query. A prepared query
// reads no clock, so no query-latency series exists, and the evaluator has
// one merge, so no merge series exists either.
TEST(ObsWorkspaceTest, RegistryHasEverySeriesTheBenchmarkReads) {
  Workspace ws;
  ASSERT_TRUE(ws.Load(kClosure).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  auto txn = ws.Begin();
  txn.AddFactText("edge(4,5).");
  ASSERT_TRUE(txn.Commit().ok());
  auto query = ws.Prepare("path(1,5)");
  ASSERT_TRUE(query.ok());
  auto exists = query->Exists();
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(*exists);

  const std::string page = ws.metrics()->RenderText();
  for (const char* series : {"lbtrust_fixpoints_total{path=\"full\"} ",
                             "lbtrust_fixpoints_total{path=\"delta\"} ",
                             "lbtrust_commit_latency_microseconds_sum ",
                             "lbtrust_rule_eval_us_total{",
                             "lbtrust_tuples_derived_total ",
                             "lbtrust_relation_probes_total{",
                             "lbtrust_relation_probe_hits_total{"}) {
    EXPECT_TRUE(Contains(page, util::StrCat("\n", series))) << series;
  }
  EXPECT_FALSE(Contains(page, "lbtrust_query_latency")) << page;
  EXPECT_FALSE(Contains(page, "\nlbtrust_merge")) << page;
}

TEST(ObsWorkspaceTest, TracerEmitsNestedFixpointSpans) {
  Workspace ws;
  obs::Tracer tracer;
  ws.SetTracer(&tracer);
  ASSERT_TRUE(ws.Load(kClosure).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  ws.SetTracer(nullptr);

  EXPECT_GT(tracer.event_count(), 2u);
  std::string json = tracer.ExportJson();
  EXPECT_TRUE(Contains(json, "\"name\":\"fixpoint\"")) << json;
  EXPECT_TRUE(Contains(json, "\"name\":\"stratum\"")) << json;
  EXPECT_TRUE(Contains(json, "\"name\":\"rule\"")) << json;
  // Span args carry the per-fixpoint/per-rule counters.
  EXPECT_TRUE(Contains(json, "\"path\":\"full\"")) << json;
  EXPECT_TRUE(Contains(json, "\"derived\":")) << json;
}

TEST(ObsTrustTest, RuntimeDumpCoversCredentialAndCryptoCounters) {
  trust::TrustRuntime::Options opts;
  opts.principal = "alice";
  opts.rsa_bits = 512;
  auto rt = trust::TrustRuntime::Create(opts);
  ASSERT_TRUE(rt.ok());

  // Issuing signs a credential: the store and RSA counters must move.
  auto hash = (*rt)->Issue("grant(bob,file1,read).");
  ASSERT_TRUE(hash.ok());

  std::string page = (*rt)->workspace()->DumpMetrics();
  EXPECT_TRUE(Contains(page, "lbtrust_credential_store_puts_total 1\n"))
      << page;
  EXPECT_TRUE(Contains(page, "lbtrust_crypto_ops_total{op=\"rsa_sign\"}"))
      << page;
  EXPECT_TRUE(Contains(page, "lbtrust_credential_verify_total{cache=\"hit\"}"))
      << page;
  // Engine metrics share the same page (unified registry).
  EXPECT_TRUE(Contains(page, "lbtrust_fixpoints_total")) << page;
}

TEST(ObsTrustTest, RegistryIsCurrentWithoutADump) {
  trust::TrustRuntime::Options opts;
  opts.principal = "alice";
  opts.rsa_bits = 512;
  auto rt = trust::TrustRuntime::Create(opts);
  ASSERT_TRUE(rt.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        (*rt)->Issue(util::StrCat("grant(bob,file", i, ",read).")).ok());
  }
  // The crypto builtins count too: one RSA signature and its check.
  ASSERT_TRUE((*rt)->Load("signed(S) <- rsaprivkey(me,K), "
                          "rsasign(\"hello\",S,K).\n"
                          "checked(S) <- signed(S), rsapubkey(me,K), "
                          "rsaverify(\"hello\",S,K).")
                  .ok());
  ASSERT_TRUE((*rt)->Fixpoint().ok());

  obs::MetricsRegistry* reg = (*rt)->workspace()->metrics();
  auto series = [reg](const char* name, const char* labels = "") {
    return static_cast<size_t>(reg->GetCounter(name, labels)->value());
  };
  EXPECT_EQ(series("lbtrust_credential_store_puts_total"), 3u);
  const cred::CredentialStore::Stats cs = (*rt)->credentials()->stats();
  EXPECT_EQ(cs.puts, series("lbtrust_credential_store_puts_total"));
  EXPECT_EQ(cs.dedup_hits,
            series("lbtrust_credential_store_dedup_hits_total"));
  EXPECT_EQ(cs.rsa_verifies,
            series("lbtrust_credential_verify_total", "cache=\"miss\""));
  EXPECT_EQ(cs.verify_cache_hits,
            series("lbtrust_credential_verify_total", "cache=\"hit\""));
  EXPECT_EQ(cs.swept, series("lbtrust_credential_store_swept_total"));
  const trust::CryptoStats crypto = (*rt)->crypto_stats();
  EXPECT_EQ(crypto.rsa_signs, 1u);
  EXPECT_EQ(crypto.rsa_verifies, 1u);
  EXPECT_EQ(crypto.rsa_signs,
            series("lbtrust_crypto_ops_total", "op=\"rsa_sign\""));
  EXPECT_EQ(crypto.rsa_verifies,
            series("lbtrust_crypto_ops_total", "op=\"rsa_verify\""));
  EXPECT_EQ(crypto.hmac_signs,
            series("lbtrust_crypto_ops_total", "op=\"hmac_sign\""));
  EXPECT_EQ(crypto.hmac_verifies,
            series("lbtrust_crypto_ops_total", "op=\"hmac_verify\""));
  EXPECT_EQ(crypto.cache_hits, series("lbtrust_crypto_cache_hits_total"));
}

}  // namespace
}  // namespace lbtrust
