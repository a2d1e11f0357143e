#include "datalog/workspace.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "datalog/pretty.h"
#include "trust/auth_scheme.h"
#include "trust/trust_runtime.h"

namespace lbtrust::datalog {
namespace {

// Canonical dump of every relation visible after a Fixpoint(), for
// byte-identical comparison between evaluation strategies.
std::string Snapshot(const Workspace& ws) {
  std::string out;
  for (const auto& [name, info] : ws.catalog().predicates()) {
    if (info.builtin) continue;
    const Relation* rel = ws.GetRelation(name);
    if (rel == nullptr) continue;
    std::vector<std::string> rows;
    rows.reserve(rel->size());
    for (uint32_t i : rel->Rows()) {
      rows.push_back(TupleToString(rel->RowTuple(i)));
    }
    std::sort(rows.begin(), rows.end());
    out += name;
    out += ":\n";
    for (const std::string& r : rows) {
      out += "  ";
      out += r;
      out += "\n";
    }
  }
  return out;
}

TEST(WorkspaceTest, FactArityMismatchRejected) {
  Workspace ws;
  ASSERT_TRUE(ws.AddFact("p", {Value::Int(1), Value::Int(2)}).ok());
  auto st = ws.AddFact("p", {Value::Int(1)});
  EXPECT_EQ(st.code(), util::StatusCode::kTypeError);
}

TEST(WorkspaceTest, ArityCapEnforcedAtBoundary) {
  // Probe masks address columns as uint64_t bits, so arity is capped at
  // 64; 63 and 64 are legal, 65 is a clean kInvalidArgument (not UB).
  Workspace ws;
  EXPECT_TRUE(ws.EnsurePredicate("w63", 63).ok());
  EXPECT_TRUE(ws.EnsurePredicate("w64", 64).ok());
  EXPECT_EQ(ws.EnsurePredicate("w65", 65).code(),
            util::StatusCode::kInvalidArgument);
  Tuple wide(65, Value::Int(1));
  EXPECT_EQ(ws.AddFact("w65fact", wide).code(),
            util::StatusCode::kInvalidArgument);
  // Boundary facts round-trip through fixpoint + query.
  Tuple row64;
  for (int i = 0; i < 64; ++i) row64.push_back(Value::Int(i));
  ASSERT_TRUE(ws.AddFact("w64", row64).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(*ws.Count("w64(A0,A1,A2,A3,A4,A5,A6,A7,A8,A9,A10,A11,A12,A13,"
                      "A14,A15,A16,A17,A18,A19,A20,A21,A22,A23,A24,A25,A26,"
                      "A27,A28,A29,A30,A31,A32,A33,A34,A35,A36,A37,A38,A39,"
                      "A40,A41,A42,A43,A44,A45,A46,A47,A48,A49,A50,A51,A52,"
                      "A53,A54,A55,A56,A57,A58,A59,A60,A61,A62,A63)"),
            1u);
}

TEST(WorkspaceTest, CannotAssertOrDeriveBuiltins) {
  Workspace ws;
  EXPECT_FALSE(ws.AddFact("int64", {Value::Int(1)}).ok());
  EXPECT_FALSE(ws.Load("int64(X) <- p(X).").ok());
  EXPECT_FALSE(ws.Load("rule(X) <- p(X).").ok());
}

TEST(WorkspaceTest, CannotQueryBuiltins) {
  Workspace ws;
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_FALSE(ws.Query("int64(X)").ok());
}

TEST(WorkspaceTest, RemoveRuleNotFound) {
  Workspace ws;
  auto rule = ParseRuleText("p(X) <- q(X).");
  EXPECT_EQ(ws.RemoveRule(*rule).code(), util::StatusCode::kNotFound);
}

TEST(WorkspaceTest, RemoveConstraintByLabel) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("c1: p(X) -> q(X).\np(a).").ok());
  EXPECT_FALSE(ws.Fixpoint().ok());
  ASSERT_TRUE(ws.RemoveConstraintsByLabel("c1").ok());
  EXPECT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(ws.RemoveConstraintsByLabel("c1").code(),
            util::StatusCode::kNotFound);
  EXPECT_FALSE(ws.RemoveConstraintsByLabel("").ok());
}

TEST(WorkspaceTest, ActiveAndOwnerTrackInstalledRules) {
  Workspace::Options opts;
  opts.principal = "alice";
  Workspace ws(opts);
  ASSERT_TRUE(ws.Load("p(X) <- q(X).").ok());
  ASSERT_TRUE(ws.LoadAs("bob", "r(X) <- s(X).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(*ws.Count("active(R)"), 2u);
  EXPECT_EQ(*ws.Count("owner(R,alice)"), 1u);
  EXPECT_EQ(*ws.Count("owner(R,bob)"), 1u);
}

TEST(WorkspaceTest, PnameEnumeratesDeclaredPredicates) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("p(a). q(b,c).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(*ws.Count("pname(p,\"p\")"), 1u);
  EXPECT_EQ(*ws.Count("pname(q,\"q\")"), 1u);
  // Hidden engine predicates are not listed.
  auto rows = ws.Query("pname(P,N)");
  ASSERT_TRUE(rows.ok());
  for (const Tuple& t : *rows) {
    EXPECT_NE(t[1].AsText()[0], '$');
  }
}

TEST(WorkspaceTest, LabelsSurviveInstall) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("exp1: p(X) <- q(X).").ok());
  ASSERT_EQ(ws.rules().size(), 1u);
  EXPECT_EQ(ws.rules()[0]->label, "exp1");
}

TEST(WorkspaceTest, CodegenRoundsReported) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("q(1).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(ws.last_codegen_rounds(), 1);
  ASSERT_TRUE(ws.Load("active([| p(X) <- q(X). |]) <- q(1).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(ws.last_codegen_rounds(), 2);
}

TEST(WorkspaceTest, CodegenCycleDetected) {
  // Each round manufactures a brand-new rule (growing body) forever; the
  // codegen cap turns this into an error instead of a hang.
  Workspace::Options opts;
  opts.max_codegen_rounds = 8;
  Workspace ws(opts);
  ASSERT_TRUE(
      ws.Load("active([| gen(X+1) <- gen(X). |]) <- go().\n"
              "active([| active([| gen(Y+2) <- gen(Y), gen(X). |]) <- "
              "gen(X). |]) <- go().\n"
              "go(). gen(0).")
          .ok());
  auto st = ws.Fixpoint();
  // Either quiesces within the cap or reports the cap cleanly — never
  // hangs. (This program quiesces: generated rules dedupe by canon.)
  EXPECT_TRUE(st.ok() || st.code() == util::StatusCode::kInternal)
      << st.ToString();
}

TEST(WorkspaceTest, HasRuleByCanon) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("p(X) <- q(X).").ok());
  EXPECT_TRUE(ws.HasRule("p(X) <- q(X)."));
  EXPECT_FALSE(ws.HasRule("p(X) <- r(X)."));
}

TEST(WorkspaceTest, FactTextRejectsRules) {
  Workspace ws;
  EXPECT_FALSE(ws.AddFactText("p(X) <- q(X).").ok());
  EXPECT_FALSE(ws.AddFactText("p(X) -> q(X).").ok());
  EXPECT_TRUE(ws.AddFactText("p(1). q(2,3).").ok());
}

TEST(WorkspaceTest, PartitionedDeclarationViaUse) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("exp[U](R) <- src(U,R). src(bob,x).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  const PredicateInfo* info = ws.catalog().Find("exp");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->partitioned);
  EXPECT_EQ(info->arity, 2u);
}

// ---------------------------------------------------------------------------
// PreparedQuery
// ---------------------------------------------------------------------------

TEST(PreparedQueryTest, RunCountExists) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("p(1,a). p(2,b). p(2,c).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  auto q = ws.Prepare("p(X,Y)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_columns(), 2u);
  EXPECT_EQ((*q->Run()).size(), 3u);
  EXPECT_EQ(*q->Count(), 3u);
  EXPECT_TRUE(*q->Exists());

  auto bound = ws.Prepare("p(2,Y)");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound->Count(), 2u);
  auto miss = ws.Prepare("p(9,Y)");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(*miss->Exists());
  EXPECT_EQ(*miss->Count(), 0u);
}

TEST(PreparedQueryTest, HandleSurvivesRuleChurnAndFixpoints) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("r(X) <- s(X). s(1).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  auto q = ws.Prepare("r(X)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q->Count(), 1u);
  // New facts and even new rules deriving into the queried relation are
  // visible through the same handle after the next Fixpoint().
  ASSERT_TRUE(ws.AddFact("s", {Value::Int(2)}).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(*q->Count(), 2u);
  ASSERT_TRUE(ws.Load("r(X) <- t(X). t(7).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(*q->Count(), 3u);
}

TEST(PreparedQueryTest, CountMatchesRunWithoutMaterializing) {
  Workspace ws;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(ws.AddFact("big", {Value::Int(i), Value::Int(i % 7)}).ok());
  }
  ASSERT_TRUE(ws.Fixpoint().ok());
  auto q = ws.Prepare("big(X,3)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q->Count(), (*q->Run()).size());
  EXPECT_EQ(*ws.Count("big(X,Y)"), 500u);
}

TEST(PreparedQueryTest, RejectsBuiltins) {
  Workspace ws;
  EXPECT_FALSE(ws.Prepare("int64(X)").ok());
}

TEST(PreparedQueryTest, ForEachEarlyStop) {
  Workspace ws;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ws.AddFact("n", {Value::Int(i)}).ok());
  }
  ASSERT_TRUE(ws.Fixpoint().ok());
  auto q = ws.Prepare("n(X)");
  ASSERT_TRUE(q.ok());
  int seen = 0;
  ASSERT_TRUE(q->ForEach([&](const Tuple&) { return ++seen < 5; }).ok());
  EXPECT_EQ(seen, 5);
}

// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

TEST(TransactionTest, BatchCommitAppliesAllThenFixpointsOnce) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("reach(X) <- seed(X).\n"
                      "reach(Y) <- reach(X), edge(X,Y).")
                  .ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  Transaction txn = ws.Begin();
  txn.AddFact("seed", {Value::Int(0)});
  for (int i = 0; i + 1 < 10; ++i) {
    txn.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  EXPECT_EQ(txn.pending_ops(), 10u);
  // Nothing is visible before Commit().
  EXPECT_EQ(*ws.Count("seed(X)"), 0u);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.active());
  EXPECT_EQ(*ws.Count("reach(X)"), 10u);
}

TEST(TransactionTest, EdbOnlyCommitTakesDeltaPath) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("path(X,Y) <- edge(X,Y).\n"
                      "path(X,Z) <- path(X,Y), edge(Y,Z).\n"
                      "edge(0,1).")
                  .ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  const obs::Counter* full_rounds =
      ws.metrics()->GetCounter("lbtrust_fixpoints_total", "path=\"full\"");
  const uint64_t full_before = full_rounds->value();
  Transaction txn = ws.Begin();
  txn.AddFact("edge", {Value::Int(1), Value::Int(2)})
      .AddFact("edge", {Value::Int(2), Value::Int(3)});
  ASSERT_TRUE(txn.Commit().ok());
  // The commit fixpoint seeded from deltas instead of rebuilding.
  EXPECT_TRUE(ws.last_fixpoint_incremental());
  EXPECT_EQ(full_rounds->value(), full_before);
  EXPECT_EQ(*ws.Count("path(0,Y)"), 3u);
  // Rule churn falls back to the full rebuild.
  ASSERT_TRUE(ws.AddRuleText("sym(Y,X) <- edge(X,Y).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_FALSE(ws.last_fixpoint_incremental());
  EXPECT_EQ(full_rounds->value(), full_before + 1);
}

// A delta-eligible program over two strata: `safe` negates `banned`, which
// no commit grows, so an `edge` commit stays on the delta path. Its `link`
// output from stratum 0 seeds stratum 1's round 0, and `reach` recurses.
// The round and tuple counts are pinned: the full and the delta fixpoint
// share one evaluation loop, and neither may add or drop a round.
TEST(TransactionTest, TwoStratumDeltaCommitCountsRoundsAndTuples) {
  Workspace::Options opts;
  opts.threads = 1;  // parallel rounds may split a round's derivations
  Workspace ws(opts);
  ASSERT_TRUE(ws.Load("link(X,Y) <- edge(X,Y).\n"
                      "safe(X) <- node(X), !banned(X).\n"
                      "reach(X,Y) <- safe(X), link(X,Y).\n"
                      "reach(X,Z) <- reach(X,Y), link(Y,Z).\n"
                      "node(1). node(2). node(3). node(4). node(5). "
                      "node(6).\n"
                      "banned(6).\n"
                      "edge(1,2). edge(2,3).")
                  .ok());
  const obs::Counter* rounds =
      ws.metrics()->GetCounter("lbtrust_eval_rounds_total");
  const obs::Counter* derived =
      ws.metrics()->GetCounter("lbtrust_tuples_derived_total");
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_FALSE(ws.last_fixpoint_incremental());
  EXPECT_EQ(rounds->value(), 4u);
  EXPECT_EQ(derived->value(), 10u);

  Transaction first = ws.Begin();
  first.AddFactText("edge(3,4). edge(4,5).");
  ASSERT_TRUE(first.Commit().ok());
  EXPECT_TRUE(ws.last_fixpoint_incremental());
  EXPECT_EQ(rounds->value(), 8u);
  EXPECT_EQ(derived->value(), 19u);
  EXPECT_EQ(*ws.Count("reach(1,Y)"), 4u);

  Transaction second = ws.Begin();
  second.AddFactText("edge(5,6). edge(6,1).");
  ASSERT_TRUE(second.Commit().ok());
  EXPECT_TRUE(ws.last_fixpoint_incremental());
  EXPECT_EQ(rounds->value(), 16u);
  EXPECT_EQ(derived->value(), 41u);
  EXPECT_EQ(*ws.Count("reach(1,Y)"), 6u);
  EXPECT_EQ(*ws.Count("reach(6,Y)"), 0u);
}

TEST(TransactionTest, AbortDiscardsStagedOps) {
  Workspace ws;
  ASSERT_TRUE(ws.Fixpoint().ok());
  Transaction txn = ws.Begin();
  txn.AddFact("p", {Value::Int(1)}).AddRuleText("q(X) <- p(X).");
  txn.Abort();
  EXPECT_FALSE(txn.active());
  EXPECT_FALSE(txn.Commit().ok());  // committing an aborted txn fails
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(*ws.Count("p(X)"), 0u);
  EXPECT_FALSE(ws.HasRule("q(X) <- p(X)."));
}

TEST(TransactionTest, MidBatchFailureRollsBackFactsAndRules) {
  Workspace ws;
  ASSERT_TRUE(ws.AddFact("keep", {Value::Int(1)}).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  Transaction txn = ws.Begin();
  txn.AddFact("p", {Value::Int(1)})
      .AddRuleText("q(X) <- p(X).")
      .RemoveFact("keep", {Value::Int(1)})
      .AddRuleText("not a parsable rule <-<-");  // fails here
  auto st = txn.Commit();
  EXPECT_FALSE(st.ok());
  // The applied prefix was rolled back: no p fact, no q rule, keep intact.
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(*ws.Count("p(X)"), 0u);
  EXPECT_FALSE(ws.HasRule("q(X) <- p(X)."));
  EXPECT_EQ(*ws.Count("keep(1)"), 1u);
}

TEST(TransactionTest, SayStagesSaysFact) {
  Workspace::Options opts;
  opts.principal = "alice";
  Workspace ws(opts);
  ASSERT_TRUE(ws.Fixpoint().ok());
  Transaction txn = ws.Begin();
  txn.Say("bob", "greeting(hello).");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(*ws.Count("says(alice,bob,R)"), 1u);
}

TEST(TransactionTest, RemoveRuleAndProgramOps) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("p(X) <- q(X). q(1).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(*ws.Count("p(X)"), 1u);
  Transaction txn = ws.Begin();
  auto rule = ParseRuleText("p(X) <- q(X).");
  txn.RemoveRule(*rule).AddProgram("r(X) <- q(X).\nq(2).");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(*ws.Count("p(X)"), 0u);
  EXPECT_EQ(*ws.Count("r(X)"), 2u);
}

// ---------------------------------------------------------------------------
// Delta-aware fixpoint: differential correctness
// ---------------------------------------------------------------------------

// Runs the same mutation sequence against a delta-aware workspace and a
// naive-evaluation reference; after every Fixpoint() the visible stores
// must be byte-identical.
class DifferentialHarness {
 public:
  DifferentialHarness() {
    Workspace::Options naive;
    naive.naive_eval = true;
    ref_ = std::make_unique<Workspace>(naive);
    dut_ = std::make_unique<Workspace>();
  }

  void Apply(const std::function<util::Status(Workspace*)>& op) {
    auto st_ref = op(ref_.get());
    auto st_dut = op(dut_.get());
    ASSERT_EQ(st_ref.code(), st_dut.code())
        << st_ref.ToString() << " vs " << st_dut.ToString();
  }

  void FixpointAndCompare() {
    auto st_ref = ref_->Fixpoint();
    auto st_dut = dut_->Fixpoint();
    ASSERT_EQ(st_ref.code(), st_dut.code())
        << st_ref.ToString() << " vs " << st_dut.ToString();
    EXPECT_EQ(Snapshot(*ref_), Snapshot(*dut_));
  }

  Workspace* dut() { return dut_.get(); }

 private:
  std::unique_ptr<Workspace> ref_;
  std::unique_ptr<Workspace> dut_;
};

TEST(DeltaFixpointTest, DifferentialInterleavedMutations) {
  DifferentialHarness h;
  h.Apply([](Workspace* ws) {
    return ws->Load("path(X,Y) <- edge(X,Y).\n"
                    "path(X,Z) <- path(X,Y), edge(Y,Z).");
  });
  h.FixpointAndCompare();
  // EDB-only additions (delta path on the DUT).
  for (int i = 0; i < 6; ++i) {
    h.Apply([i](Workspace* ws) {
      return ws->AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    });
    h.FixpointAndCompare();
  }
  EXPECT_TRUE(h.dut()->last_fixpoint_incremental());
  // Retraction: falls back to the full rebuild, consequences disappear.
  h.Apply([](Workspace* ws) {
    return ws->RemoveFact("edge", {Value::Int(2), Value::Int(3)});
  });
  h.FixpointAndCompare();
  EXPECT_FALSE(h.dut()->last_fixpoint_incremental());
  // Rule churn interleaved with additions.
  h.Apply([](Workspace* ws) {
    return ws->AddRuleText("sym(Y,X) <- edge(X,Y).");
  });
  h.Apply([](Workspace* ws) {
    return ws->AddFact("edge", {Value::Int(9), Value::Int(10)});
  });
  h.FixpointAndCompare();
  auto rule = ParseRuleText("sym(Y,X) <- edge(X,Y).");
  ASSERT_TRUE(rule.ok());
  h.Apply([&](Workspace* ws) { return ws->RemoveRule(*rule); });
  h.FixpointAndCompare();
  h.Apply([](Workspace* ws) {
    return ws->AddFact("edge", {Value::Int(10), Value::Int(11)});
  });
  h.FixpointAndCompare();
  EXPECT_TRUE(h.dut()->last_fixpoint_incremental());
}

TEST(DeltaFixpointTest, DifferentialNegationForcesFullRebuild) {
  DifferentialHarness h;
  h.Apply([](Workspace* ws) {
    return ws->Load("lonely(X) <- node(X), !edge(X,Y).\n"
                    "node(1). node(2). edge(1,2).");
  });
  h.FixpointAndCompare();
  // edge grows and is read under negation: lonely(2) must disappear, which
  // the additive path cannot express — the DUT must detect this and
  // rebuild.
  h.Apply([](Workspace* ws) {
    return ws->AddFact("edge", {Value::Int(2), Value::Int(1)});
  });
  h.FixpointAndCompare();
  EXPECT_FALSE(h.dut()->last_fixpoint_incremental());
  EXPECT_EQ(*h.dut()->Count("lonely(X)"), 0u);
  // A delta that cannot reach the negated relation stays incremental.
  h.Apply([](Workspace* ws) {
    return ws->AddFact("unrelated", {Value::Int(1)});
  });
  h.FixpointAndCompare();
  EXPECT_TRUE(h.dut()->last_fixpoint_incremental());
}

TEST(DeltaFixpointTest, DifferentialAggregateForcesFullRebuild) {
  DifferentialHarness h;
  h.Apply([](Workspace* ws) {
    return ws->Load("tally(G,N) <- agg<<N = count(U)>> vote(G,U).\n"
                    "vote(g1,1). vote(g1,2).");
  });
  h.FixpointAndCompare();
  // Growing an aggregated relation must replace the old count.
  h.Apply([](Workspace* ws) {
    return ws->AddFact("vote", {Value::Sym("g1"), Value::Int(3)});
  });
  h.FixpointAndCompare();
  EXPECT_FALSE(h.dut()->last_fixpoint_incremental());
  EXPECT_EQ(*h.dut()->Count("tally(g1,3)"), 1u);
}

TEST(DeltaFixpointTest, DifferentialConstraintsAndActivation) {
  DifferentialHarness h;
  h.Apply([](Workspace* ws) {
    return ws->Load("c9: p(X) -> t(X).\nt(1).");
  });
  h.FixpointAndCompare();
  // Violation on both sides; retract on both sides; removal of the
  // constraint label; meta-activation of a rule through `active`.
  h.Apply([](Workspace* ws) {
    return ws->AddFact("p", {Value::Int(5)});
  });
  h.FixpointAndCompare();  // both must report kConstraintViolation
  h.Apply([](Workspace* ws) {
    return ws->RemoveFact("p", {Value::Int(5)});
  });
  h.FixpointAndCompare();
  h.Apply([](Workspace* ws) {
    return ws->RemoveConstraintsByLabel("c9");
  });
  h.Apply([](Workspace* ws) {
    return ws->AddFact("p", {Value::Int(5)});
  });
  h.FixpointAndCompare();
  h.Apply([](Workspace* ws) {
    return ws->Load("active([| q(X) <- p(X). |]) <- p(5).");
  });
  h.FixpointAndCompare();
  EXPECT_EQ(*h.dut()->Count("q(5)"), 1u);
}

// Full-stack differential: a TrustRuntime pair (delta-aware vs naive
// reference) driven through says/UseScheme reconfiguration, the ISSUE's
// interleaved AddFact/RemoveFact/RemoveRule/UseScheme sequence.
TEST(DeltaFixpointTest, DifferentialTrustRuntimeUseScheme) {
  auto make = [](bool naive) {
    trust::TrustRuntime::Options opts;
    opts.principal = "alice";
    opts.rsa_bits = 512;
    opts.workspace.naive_eval = naive;
    auto rt = trust::TrustRuntime::Create(opts);
    EXPECT_TRUE(rt.ok());
    return std::move(*rt);
  };
  auto ref = make(true);
  auto dut = make(false);

  auto both = [&](const std::function<util::Status(trust::TrustRuntime*)>& op) {
    auto st_ref = op(ref.get());
    auto st_dut = op(dut.get());
    ASSERT_EQ(st_ref.code(), st_dut.code())
        << st_ref.ToString() << " vs " << st_dut.ToString();
  };
  auto compare = [&]() {
    auto st_ref = ref->Fixpoint();
    auto st_dut = dut->Fixpoint();
    ASSERT_EQ(st_ref.code(), st_dut.code())
        << st_ref.ToString() << " vs " << st_dut.ToString();
    EXPECT_EQ(Snapshot(*ref->workspace()), Snapshot(*dut->workspace()));
  };

  trust::TrustRuntime::Options bob_opts;
  bob_opts.principal = "bob";
  bob_opts.rsa_bits = 512;
  auto bob = trust::TrustRuntime::Create(bob_opts);
  ASSERT_TRUE(bob.ok());

  both([&](trust::TrustRuntime* rt) {
    return rt->AddPeer("bob", (*bob)->keypair().public_key);
  });
  both([&](trust::TrustRuntime* rt) {
    return rt->AddSharedSecret("bob", "secret:alice:bob");
  });
  compare();

  both([](trust::TrustRuntime* rt) {
    return rt->UseScheme(*trust::MakeScheme("rsa")).status();
  });
  compare();
  both([](trust::TrustRuntime* rt) {
    return rt->Say("alice", "flag(up).");
  });
  compare();
  // Scheme swap: the paper's RSA -> HMAC reconfiguration (rule removal +
  // install), interleaved with fact churn.
  both([](trust::TrustRuntime* rt) {
    return rt->UseScheme(*trust::MakeScheme("hmac")).status();
  });
  both([](trust::TrustRuntime* rt) {
    return rt->workspace()->AddFact("blob", {Value::Int(1)});
  });
  compare();
  both([](trust::TrustRuntime* rt) {
    return rt->workspace()->RemoveFact("blob", {Value::Int(1)});
  });
  compare();
  both([](trust::TrustRuntime* rt) {
    return rt->UseScheme(*trust::MakeScheme("plaintext")).status();
  });
  compare();
}

}  // namespace
}  // namespace lbtrust::datalog
