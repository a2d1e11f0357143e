// Engine ablations (DESIGN.md §4): semi-naive vs naive fixpoint and the
// boundness-based join-order heuristic, measured on transitive closure —
// the substrate cost under every trust-management workload.
#include <string>
#include <utility>

#include <benchmark/benchmark.h>

#include "datalog/magic.h"
#include "datalog/parser.h"
#include "datalog/pretty.h"
#include "datalog/workspace.h"
#include "util/strings.h"

namespace {

using lbtrust::datalog::CloneRule;
using lbtrust::datalog::MagicSetTransform;
using lbtrust::datalog::Rule;
using lbtrust::datalog::Tuple;
using lbtrust::datalog::Value;
using lbtrust::datalog::Workspace;

// Retracting and re-adding one EDB fact sends the next Fixpoint() down the
// full path: the store is cleared and every rule re-evaluated from the EDB.
void ForceFullRebuild(Workspace* ws, const std::string& pred, Tuple fact) {
  (void)ws->RemoveFact(pred, fact);
  (void)ws->AddFact(pred, std::move(fact));
}

// Chain with a back edge: n nodes, diameter n (worst case for rounds).
void LoadChain(Workspace* ws, int n) {
  for (int i = 0; i + 1 < n; ++i) {
    (void)ws->AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  (void)ws->AddFact("edge", {Value::Int(n - 1), Value::Int(0)});
}

// Second arg = Options::threads (1 = the classic sequential engine). The
// chain shape is the parallel evaluator's worst case: n rounds of n-row
// deltas, so per-round dispatch/merge overhead is maximally exposed.
void BM_TransitiveClosureSemiNaive(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  unsigned threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    Workspace::Options opts;
    opts.threads = threads;
    Workspace ws(opts);
    (void)ws.Load("path(X,Y) <- edge(X,Y).\n"
                  "path(X,Z) <- path(X,Y), edge(Y,Z).");
    LoadChain(&ws, n);
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(ws.GetRelation("path"));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_TransitiveClosureSemiNaive)
    ->Args({32, 1})
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4});

// Thread-scaling series on a wide closure: layered complete-bipartite
// edges give few rounds with large deltas — the shape where intra-round
// parallelism pays, as opposed to the chain's many tiny rounds.
void BM_TransitiveClosureWide(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  unsigned threads = static_cast<unsigned>(state.range(1));
  constexpr int kLayers = 6;
  for (auto _ : state) {
    Workspace::Options opts;
    opts.threads = threads;
    Workspace ws(opts);
    (void)ws.Load("path(X,Y) <- edge(X,Y).\n"
                  "path(X,Z) <- path(X,Y), edge(Y,Z).");
    for (int layer = 0; layer + 1 < kLayers; ++layer) {
      for (int a = 0; a < width; ++a) {
        for (int b = 0; b < width; ++b) {
          (void)ws.AddFact("edge", {Value::Int(layer * 1000 + a),
                                    Value::Int((layer + 1) * 1000 + b)});
        }
      }
    }
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(ws.GetRelation("path"));
  }
  state.SetItemsProcessed(state.iterations() * width * width * kLayers);
}
BENCHMARK(BM_TransitiveClosureWide)
    ->Args({24, 1})
    ->Args({24, 2})
    ->Args({24, 4});

void BM_TransitiveClosureNaive(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Workspace::Options opts;
    opts.naive_eval = true;
    Workspace ws(opts);
    (void)ws.Load("path(X,Y) <- edge(X,Y).\n"
                  "path(X,Z) <- path(X,Y), edge(Y,Z).");
    LoadChain(&ws, n);
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(ws.GetRelation("path"));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_TransitiveClosureNaive)->Arg(32)->Arg(64)->Arg(128);

// Join order: a selective literal placed syntactically last. The greedy
// scheduler hoists the bound-argument probe; this measures the win over a
// program whose selective literal is already first (i.e. the heuristic's
// effect is visible as the gap between Selective and Unselective shapes).
void BM_JoinOrderSelectiveLast(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  // Full evaluation per Fixpoint(): this measures the join, not the
  // delta-aware no-change shortcut.
  Workspace ws;
  (void)ws.Load("q(X,Y) <- wide(X), wide(Y), narrow(X), narrow(Y).");
  for (int i = 0; i < n; ++i) {
    (void)ws.AddFact("wide", {Value::Int(i)});
  }
  (void)ws.AddFact("narrow", {Value::Int(1)});
  (void)ws.AddFact("narrow", {Value::Int(2)});
  for (auto _ : state) {
    ForceFullRebuild(&ws, "narrow", {Value::Int(2)});
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_JoinOrderSelectiveLast)->Arg(1000)->Arg(10000);

void BM_IndexedLookupVsScan(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Workspace ws;
  (void)ws.Load("hit(Y) <- probe(X), data(X,Y).");
  for (int i = 0; i < n; ++i) {
    (void)ws.AddFact("data", {Value::Int(i), Value::Int(i * 7)});
  }
  (void)ws.AddFact("probe", {Value::Int(n / 2)});
  for (auto _ : state) {
    // Measure the joins, not the no-change path.
    ForceFullRebuild(&ws, "probe", {Value::Int(n / 2)});
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IndexedLookupVsScan)->Arg(10000)->Arg(100000);

void BM_AggregationThroughput(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Workspace ws;
  (void)ws.Load("tally(G,N) <- agg<<N = count(U)>> vote(G,U).");
  for (int i = 0; i < n; ++i) {
    (void)ws.AddFact("vote", {Value::Int(i % 10), Value::Int(i)});
  }
  for (auto _ : state) {
    // Measure aggregation, not the no-change path.
    ForceFullRebuild(&ws, "vote", {Value::Int(0), Value::Int(0)});
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AggregationThroughput)->Arg(1000)->Arg(10000);

// §7 future-work ablation: demand-driven (magic sets) vs full bottom-up
// evaluation of a selective query — the access-control pattern where a
// single request should not materialize the whole policy closure.
void BM_SelectiveQuery(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool use_magic = state.range(1) != 0;
  std::string program =
      "path(X,Y) <- edge(X,Y).\n"
      "path(X,Z) <- edge(X,Y), path(Y,Z).";
  std::string facts;
  for (int i = 0; i + 1 < n; ++i) {
    facts += lbtrust::util::StrCat("edge(n", i, ",n", i + 1, ").\n");
  }
  std::string query =
      lbtrust::util::StrCat("path(n", n - 5, ",X)");
  for (auto _ : state) {
    Workspace ws;
    (void)ws.AddFactText(facts);
    if (use_magic) {
      auto clauses = lbtrust::datalog::ParseProgram(program);
      std::vector<Rule> storage;
      for (const auto& clause : *clauses) {
        for (const Rule& r : clause.rules) storage.push_back(CloneRule(r));
      }
      std::vector<const Rule*> ptrs;
      for (const Rule& r : storage) ptrs.push_back(&r);
      auto atom = lbtrust::datalog::ParseAtomText(query);
      auto magic = MagicSetTransform(ptrs, *atom);
      if (!magic.ok()) state.SkipWithError("transform failed");
      for (const Rule& r : magic->rules) (void)ws.AddRule(r);
      (void)ws.AddFact(magic->seed_pred, magic->seed_args);
    } else {
      (void)ws.Load(program);
    }
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel(use_magic ? "magic sets" : "full bottom-up");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SelectiveQuery)->Args({128, 0})->Args({128, 1})
    ->Args({256, 0})->Args({256, 1});

// Incremental ablation: N facts loaded one-Fixpoint-at-a-time vs in one
// batch. Historically this quantified the "full recompute per fixpoint"
// decision; with the delta-aware fixpoint the per-fact side now rides the
// cross-fixpoint delta path, so the remaining gap is per-call overhead
// (codegen scan, constraint checks) rather than re-derivation.
void BM_IncrementalVsBatchLoad(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool incremental = state.range(1) != 0;
  for (auto _ : state) {
    Workspace ws;
    (void)ws.Load("reach(X) <- seed(X).\n"
                  "reach(Y) <- reach(X), edge(X,Y).\n"
                  "seed(0).");
    for (int i = 0; i + 1 < n; ++i) {
      (void)ws.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
      if (incremental) {
        auto st = ws.Fixpoint();
        if (!st.ok()) state.SkipWithError(st.ToString().c_str());
      }
    }
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(incremental ? "per-fact fixpoints" : "one batch fixpoint");
}
BENCHMARK(BM_IncrementalVsBatchLoad)->Args({64, 0})->Args({64, 1});

// Session-API ablation: the repeated-read hot path. The string API re-lexes,
// re-parses and re-compiles the pattern on every call; the prepared handle
// pays that once at Prepare() and evaluates the compiled plan per call.
void BM_PreparedQuery(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool prepared = state.range(1) != 0;
  Workspace ws;
  (void)ws.Load("access(P,O,read) <- good(P), object(O).");
  for (int i = 0; i < n; ++i) {
    (void)ws.AddFact("good", {Value::Sym(lbtrust::util::StrCat("u", i))});
    (void)ws.AddFact("object", {Value::Sym(lbtrust::util::StrCat("f", i))});
  }
  auto st = ws.Fixpoint();
  if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  // The access-control hot path: a fully bound "may u1 read f1?" probe.
  auto q = ws.Prepare("access(u1,f1,read)");
  if (!q.ok()) state.SkipWithError(q.status().ToString().c_str());
  for (auto _ : state) {
    bool allowed = false;
    if (prepared) {
      allowed = *q->Exists();
    } else {
      allowed = *ws.Count("access(u1,f1,read)") > 0;
    }
    benchmark::DoNotOptimize(allowed);
  }
  state.SetLabel(prepared ? "PreparedQuery::Exists" : "string Count");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PreparedQuery)->Args({100, 0})->Args({100, 1})
    ->Args({300, 0})->Args({300, 1});

// Session-API write path: a Transaction stages the batch, applies it once
// and fixpoints once; an EDB-only commit takes the delta-aware evaluation
// path instead of rebuilding the store.
void BM_TransactionCommit(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Workspace ws;
    (void)ws.Load("reach(X) <- seed(X).\n"
                  "reach(Y) <- reach(X), edge(X,Y).\n"
                  "seed(0).");
    (void)ws.Fixpoint();
    state.ResumeTiming();
    lbtrust::datalog::Transaction txn = ws.Begin();
    for (int i = 0; i + 1 < n; ++i) {
      txn.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    }
    auto st = txn.Commit();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel("one Transaction::Commit (delta)");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TransactionCommit)->Arg(64)->Arg(256);

// Delta-aware fixpoint on a warm store: repeated single-fact EDB-only
// commits against a large existing closure, at `threads`.
void WarmStoreCommits(benchmark::State& state, unsigned threads) {
  int n = static_cast<int>(state.range(0));
  Workspace::Options opts;
  opts.threads = threads;
  Workspace ws(opts);
  (void)ws.Load("path(X,Y) <- edge(X,Y).\n"
                "path(X,Z) <- path(X,Y), edge(Y,Z).");
  LoadChain(&ws, n);
  auto st = ws.Fixpoint();
  if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  int64_t next = 1000000;
  for (auto _ : state) {
    lbtrust::datalog::Transaction txn = ws.Begin();
    // An isolated edge: tiny delta against the big closure.
    txn.AddFact("edge", {Value::Int(next), Value::Int(next + 1)});
    next += 2;
    auto cst = txn.Commit();
    if (!cst.ok()) state.SkipWithError(cst.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}

// At the default threads=0 (one worker per hardware thread).
void BM_DeltaFixpointWarmStore(benchmark::State& state) {
  WarmStoreCommits(state, 0);
}
BENCHMARK(BM_DeltaFixpointWarmStore)->Arg(64)->Arg(128);

// At threads=1, as perfbench runs: the gap to BM_DeltaFixpointWarmStore is
// what the parallel path costs a commit whose rounds yield one chunk.
void BM_DeltaFixpointWarmStoreSequential(benchmark::State& state) {
  WarmStoreCommits(state, 1);
}
BENCHMARK(BM_DeltaFixpointWarmStoreSequential)->Arg(64)->Arg(128);

// The same data with and without the constraint loaded.
void BM_ConstraintCheckOverhead(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool with_constraints = state.range(1) != 0;
  Workspace ws;
  if (with_constraints) (void)ws.Load("p(X,Y) -> t(X), t(Y).");
  for (int i = 0; i < n; ++i) {
    (void)ws.AddFact("t", {Value::Int(i)});
    (void)ws.AddFact("p", {Value::Int(i), Value::Int((i + 1) % n)});
  }
  for (auto _ : state) {
    // Measure the checks on a full rebuild.
    ForceFullRebuild(&ws, "t", {Value::Int(0)});
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ConstraintCheckOverhead)
    ->Args({10000, 0})
    ->Args({10000, 1});

}  // namespace
