// Parallel intra-stratum evaluation: determinism, differential equality
// against the sequential engine, and the frozen-relation concurrency
// contract (the latter is what the ThreadSanitizer CI job exercises).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/dump.h"
#include "datalog/relation.h"
#include "datalog/workspace.h"
#include "golden_programs.h"

namespace lbtrust::datalog {
namespace {

std::string DumpWithThreads(const lbtrust::testing::GoldenProgram& prog,
                            unsigned threads) {
  Workspace::Options opts;
  opts.principal = prog.principal;
  opts.threads = threads;
  Workspace ws(opts);
  auto load = ws.Load(prog.program);
  EXPECT_TRUE(load.ok()) << prog.name << ": " << load.ToString();
  auto fix = ws.Fixpoint();
  EXPECT_TRUE(fix.ok()) << prog.name << ": " << fix.ToString();
  return DumpWorkspace(ws, 0);
}

// Every corpus program — joins, recursion, negation, aggregates, code
// values, codegen activation — must dump byte-identically whether rules
// evaluate sequentially or across a worker pool.
class ParallelDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelDifferentialTest, ThreadCountsAgree) {
  const auto& prog = lbtrust::testing::kGoldenPrograms[GetParam()];
  std::string seq = DumpWithThreads(prog, 1);
  EXPECT_EQ(seq, DumpWithThreads(prog, 2)) << "program: " << prog.name;
  EXPECT_EQ(seq, DumpWithThreads(prog, 4)) << "program: " << prog.name;
}

TEST_P(ParallelDifferentialTest, ParallelRunsAreDeterministic) {
  const auto& prog = lbtrust::testing::kGoldenPrograms[GetParam()];
  EXPECT_EQ(DumpWithThreads(prog, 4), DumpWithThreads(prog, 4))
      << "program: " << prog.name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ParallelDifferentialTest,
    ::testing::Range<size_t>(0, lbtrust::testing::kNumGoldenPrograms),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return lbtrust::testing::kGoldenPrograms[info.param].name;
    });

// A deeper recursive workload than the corpus: transitive closure of a
// chain with a back edge (n rounds of n-row deltas — the worst case for
// round synchronization) plus cross joins that re-derive tuples.
std::string TransitiveClosureDump(unsigned threads, int n, bool batched) {
  Workspace::Options opts;
  opts.threads = threads;
  Workspace ws(opts);
  EXPECT_TRUE(ws.Load("path(X,Y) <- edge(X,Y).\n"
                      "path(X,Z) <- path(X,Y), edge(Y,Z).\n"
                      "reach(Y) <- seed(X), path(X,Y).\n"
                      "seed(0).")
                  .ok());
  if (batched) {
    Transaction txn = ws.Begin();
    for (int i = 0; i + 1 < n; ++i) {
      txn.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    }
    txn.AddFact("edge", {Value::Int(n - 1), Value::Int(0)});
    EXPECT_TRUE(txn.Commit().ok());
  } else {
    for (int i = 0; i + 1 < n; ++i) {
      (void)ws.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    }
    (void)ws.AddFact("edge", {Value::Int(n - 1), Value::Int(0)});
    EXPECT_TRUE(ws.Fixpoint().ok());
  }
  EXPECT_EQ(ws.GetRelation("path")->size(), static_cast<size_t>(n) * n);
  return DumpWorkspace(ws, 0);
}

TEST(ParallelEval, TransitiveClosureMatchesSequential) {
  std::string seq = TransitiveClosureDump(1, 48, /*batched=*/false);
  EXPECT_EQ(seq, TransitiveClosureDump(2, 48, false));
  EXPECT_EQ(seq, TransitiveClosureDump(4, 48, false));
  EXPECT_EQ(seq, TransitiveClosureDump(3, 48, false));
}

// The delta-aware (incremental) fixpoint also runs its rounds through the
// parallel path: a warm store extended by a batch commit must agree.
TEST(ParallelEval, DeltaFixpointMatchesSequential) {
  std::string seq = TransitiveClosureDump(1, 32, /*batched=*/true);
  EXPECT_EQ(seq, TransitiveClosureDump(4, 32, true));
}

TEST(ParallelEval, WarmStoreIncrementalCommits) {
  auto run = [](unsigned threads) {
    Workspace::Options opts;
    opts.threads = threads;
    Workspace ws(opts);
    EXPECT_TRUE(ws.Load("path(X,Y) <- edge(X,Y).\n"
                        "path(X,Z) <- path(X,Y), edge(Y,Z).")
                    .ok());
    for (int i = 0; i + 1 < 24; ++i) {
      (void)ws.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    }
    EXPECT_TRUE(ws.Fixpoint().ok());
    // Several small incremental commits against the warm closure.
    for (int i = 0; i < 6; ++i) {
      Transaction txn = ws.Begin();
      txn.AddFact("edge", {Value::Int(100 + i), Value::Int(i)});
      EXPECT_TRUE(txn.Commit().ok());
      EXPECT_TRUE(ws.last_fixpoint_incremental());
    }
    return DumpWorkspace(ws, 0);
  };
  EXPECT_EQ(run(1), run(4));
}

// Mixed rounds: parallel-safe join rules coexisting with pattern/builtin
// rules (which evaluate sequentially in the merge phase) and negation.
TEST(ParallelEval, MixedSafeAndUnsafeRules) {
  auto run = [](unsigned threads) {
    Workspace::Options opts;
    opts.threads = threads;
    Workspace ws(opts);
    EXPECT_TRUE(ws.Load("link(X,Y) <- edge(X,Y).\n"
                        "link(X,Z) <- link(X,Y), edge(Y,Z).\n"
                        "dist(X, Y, 1) <- edge(X, Y).\n"       // const col
                        "far(X) <- node(X), !edge(X, Y).\n"    // negation
                        "twice(X, X + X) <- node(X).\n"        // arithmetic
                        "small(X) <- node(X), X < 7.\n"        // builtin
                        "shifted(Y) <- node(X), Y = X * 2.\n")  // equality
                    .ok());
    for (int i = 0; i < 20; ++i) {
      (void)ws.AddFact("node", {Value::Int(i)});
      if (i + 1 < 20 && i % 3 != 2) {
        (void)ws.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
      }
    }
    EXPECT_TRUE(ws.Fixpoint().ok());
    return DumpWorkspace(ws, 0);
  };
  std::string seq = run(1);
  EXPECT_EQ(seq, run(2));
  EXPECT_EQ(seq, run(4));
}

// Duplicate derivations across chunks: a diamond-heavy graph where the
// same path tuple is derivable from many delta rows in one round. The
// merge's deduplicating insert must keep set semantics.
TEST(ParallelEval, DuplicateDerivationsAcrossChunks) {
  auto run = [](unsigned threads) {
    Workspace::Options opts;
    opts.threads = threads;
    Workspace ws(opts);
    EXPECT_TRUE(ws.Load("path(X,Y) <- edge(X,Y).\n"
                        "path(X,Z) <- path(X,Y), edge(Y,Z).")
                    .ok());
    // Layered complete bipartite graph: 4 layers of 6 nodes.
    for (int layer = 0; layer < 3; ++layer) {
      for (int a = 0; a < 6; ++a) {
        for (int b = 0; b < 6; ++b) {
          (void)ws.AddFact("edge", {Value::Int(layer * 10 + a),
                                    Value::Int((layer + 1) * 10 + b)});
        }
      }
    }
    EXPECT_TRUE(ws.Fixpoint().ok());
    return DumpWorkspace(ws, 0);
  };
  std::string seq = run(1);
  EXPECT_EQ(seq, run(4));
}

// The tuple budget counts distinct inserts. A dense join emits the same
// new tuple many times before the merge deduplicates; those raw duplicate
// emissions must not fail a budget the sequential engine passes (the
// chunk buffer compacts instead).
TEST(ParallelEval, DuplicateEmissionsDoNotTripTupleBudget) {
  auto run = [](unsigned threads) {
    constexpr int m = 16;
    Workspace::Options opts;
    opts.threads = threads;
    // Distinct derived tuples: 3*m^2 = 768. One parallel chunk's raw
    // emissions in the cross-layer round reach ~(m^2/4)*m = 1024.
    opts.limits.max_tuples = 900;
    Workspace ws(opts);
    EXPECT_TRUE(ws.Load("path(X,Y) <- edge(X,Y).\n"
                        "path(X,Z) <- path(X,Y), edge(Y,Z).")
                    .ok());
    for (int layer = 0; layer < 2; ++layer) {
      for (int a = 0; a < m; ++a) {
        for (int b = 0; b < m; ++b) {
          (void)ws.AddFact("edge", {Value::Int(layer * 100 + a),
                                    Value::Int((layer + 1) * 100 + b)});
        }
      }
    }
    EXPECT_TRUE(ws.Fixpoint().ok()) << "threads=" << threads;
    return DumpWorkspace(ws, 0);
  };
  EXPECT_EQ(run(1), run(4));
}

// Dumps are byte-identical at every thread count, on the chain closure
// (many rounds of small deltas), its batched-commit variant (the delta
// fixpoint) and a wide layered closure (few rounds with thousands of
// buffered rows per merge).
TEST(ParallelEval, DumpsAgreeAcrossThreadMatrix) {
  auto wide = [](unsigned threads) {
    Workspace::Options opts;
    opts.threads = threads;
    Workspace ws(opts);
    EXPECT_TRUE(ws.Load("path(X,Y) <- edge(X,Y).\n"
                        "path(X,Z) <- path(X,Y), edge(Y,Z).")
                    .ok());
    for (int layer = 0; layer < 3; ++layer) {
      for (int a = 0; a < 12; ++a) {
        for (int b = 0; b < 12; ++b) {
          (void)ws.AddFact("edge", {Value::Int(layer * 100 + a),
                                    Value::Int((layer + 1) * 100 + b)});
        }
      }
    }
    EXPECT_TRUE(ws.Fixpoint().ok());
    return DumpWorkspace(ws, 0);
  };
  const std::string chain = TransitiveClosureDump(1, 48, /*batched=*/false);
  const std::string wide_baseline = wide(1);
  for (unsigned threads : {1u, 2u, 4u}) {
    EXPECT_EQ(chain, TransitiveClosureDump(threads, 48, /*batched=*/false))
        << "threads=" << threads;
    EXPECT_EQ(chain, TransitiveClosureDump(threads, 48, /*batched=*/true))
        << "batched threads=" << threads;
    EXPECT_EQ(wide_baseline, wide(threads)) << "wide threads=" << threads;
  }
}

// --- Frozen-relation concurrency contract ---------------------------------

// Regression for the const-lookup index race: LookupIds/MatchesIds were
// `const` but lazily mutated `indexes_`, so two concurrent readers raced.
// With BuildIndex + FreezeForRead, concurrent read-only probes touch no
// mutable state; the TSan CI job proves it.
TEST(RelationConcurrency, ConcurrentFrozenProbesAreRaceFree) {
  Relation rel(2);
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(rel.Insert({Value::Int(i % 64), Value::Int(i)}));
  }
  rel.BuildIndex(0b01);
  rel.BuildIndex(0b10);
  rel.FreezeForRead();

  std::atomic<size_t> total_hits{0};
  std::atomic<bool> failed{false};
  auto reader = [&](int tid) {
    size_t hits = 0;
    std::vector<uint32_t> scratch;
    for (int iter = 0; iter < 2000; ++iter) {
      // Column-0 values 0..63 each occur 8 times; 64..127 never.
      int k = (iter * 7 + tid * 13) % 128;
      ValueId key[1];
      if (!rel.pool()->Find(Value::Int(k), &key[0])) {
        failed = true;  // ints are inline-representable: Find never misses
        continue;
      }
      scratch.clear();
      rel.LookupIds(0b01, key, &scratch);
      hits += scratch.size();
      if (scratch.size() != (k < 64 ? 8u : 0u)) failed = true;
      if (rel.MatchesIds(0b01, key) != (k < 64)) failed = true;
      if (k < 64) {
        // Row (k, k + 64) exists: i = k + 64 has i % 64 == k.
        ValueId row[2];
        if (!rel.pool()->Find(Value::Int(k), &row[0]) ||
            !rel.pool()->Find(Value::Int(k + 64), &row[1]) ||
            !rel.ContainsIds(row)) {
          failed = true;
        }
      }
    }
    total_hits.fetch_add(hits);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(reader, t);
  for (auto& t : threads) t.join();
  rel.Thaw();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(total_hits.load(), 0u);
}

// End-to-end: concurrent Fixpoints on independent workspaces (one pool and
// store per workspace) must not interfere.
TEST(RelationConcurrency, IndependentWorkspacesInParallel) {
  std::vector<std::string> dumps(3);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([t, &dumps] {
      Workspace::Options opts;
      opts.threads = 2;
        Workspace ws(opts);
      ASSERT_TRUE(ws.Load("path(X,Y) <- edge(X,Y).\n"
                          "path(X,Z) <- path(X,Y), edge(Y,Z).")
                      .ok());
      for (int i = 0; i + 1 < 20; ++i) {
        (void)ws.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
      }
      ASSERT_TRUE(ws.Fixpoint().ok());
      dumps[t] = DumpWorkspace(ws, 0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

using RelationFreezeDeathTest = ::testing::Test;

TEST(RelationFreezeDeathTest, FrozenMutationHardFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Relation rel(1);
  ASSERT_TRUE(rel.Insert({Value::Int(1)}));
  rel.FreezeForRead();
  IdTuple row = InternTuple(rel.pool(), {Value::Int(2)});
  EXPECT_DEATH(rel.InsertIds(row.data()), "frozen relation");
  EXPECT_DEATH(rel.EraseIds(row.data()), "frozen relation");
  EXPECT_DEATH(rel.Clear(), "frozen relation");
  rel.Thaw();
  EXPECT_TRUE(rel.InsertIds(row.data()));
}

TEST(RelationFreezeDeathTest, FrozenProbeWithoutIndexHardFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Relation rel(2);
  ASSERT_TRUE(rel.Insert({Value::Int(1), Value::Int(2)}));
  rel.BuildIndex(0b01);
  rel.FreezeForRead();
  IdTuple key = InternTuple(rel.pool(), {Value::Int(1)});
  std::vector<uint32_t> out;
  rel.LookupIds(0b01, key.data(), &out);  // pre-built: fine
  EXPECT_EQ(out.size(), 1u);
  EXPECT_DEATH(rel.LookupIds(0b10, key.data(), &out), "pre-built index");
  // A stale index (built before later inserts) must also be rejected.
  rel.Thaw();
  ASSERT_TRUE(rel.Insert({Value::Int(3), Value::Int(4)}));
  rel.FreezeForRead();
  EXPECT_DEATH(rel.MatchesIds(0b01, key.data()), "pre-built index");
}

}  // namespace
}  // namespace lbtrust::datalog
