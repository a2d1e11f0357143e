// Delegation ablations (§4.2): cost of delegation chains with depth
// enforcement, and threshold (k-of-n) evaluation as the group grows.
#include <string>

#include <benchmark/benchmark.h>

#include "datalog/workspace.h"
#include "meta/codegen.h"
#include "trust/delegation.h"
#include "util/strings.h"

namespace {

using lbtrust::datalog::Value;
using lbtrust::datalog::Workspace;

// Shared-workspace chain p0 -> p1 -> ... -> p_depth, each hop delegating
// `perm` with a depth limit that exactly admits the chain.
void BM_DelegationChainDepth(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Workspace::Options opts;
    opts.principal = "p0";
    Workspace ws(opts);
    for (int i = 0; i <= depth; ++i) {
      std::string p = lbtrust::util::StrCat("p", i);
      (void)ws.AddFact("prin", {Value::Sym(p)});
      (void)ws.LoadAs(p, "active(R) <- says(_,me,R).");
      (void)ws.LoadAs(p, lbtrust::trust::DelegationDepthRules());
    }
    (void)ws.AddFactTextAs(
        "p0", lbtrust::util::StrCat("delDepth(me,p1,perm,", depth - 1,
                                    "). delegates(me,p1,perm)."));
    for (int i = 1; i < depth; ++i) {
      (void)ws.AddFactTextAs(lbtrust::util::StrCat("p", i),
                             lbtrust::util::StrCat("delegates(me,p", i + 1,
                                                   ",perm)."));
    }
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_DelegationChainDepth)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ThresholdGroupSize(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Workspace::Options opts;
  opts.principal = "bank";
  Workspace ws(opts);
  (void)ws.Load(lbtrust::trust::ThresholdRules("ok", "grp", n / 2));
  for (int i = 0; i < n; ++i) {
    std::string b = lbtrust::util::StrCat("b", i);
    (void)ws.AddFact("prin", {Value::Sym(b)});
    (void)ws.AddFact("pringroup", {Value::Sym(b), Value::Sym("grp")});
    auto code = lbtrust::meta::QuoteRuleText("ok(cust).");
    (void)ws.AddFact("says",
                     {Value::Sym(b), Value::Sym("bank"), *code});
  }
  for (auto _ : state) {
    // Measure aggregation, not the no-change path: a retraction forces the
    // next Fixpoint() onto the full path.
    (void)ws.RemoveFact("prin", {Value::Sym("b0")});
    (void)ws.AddFact("prin", {Value::Sym("b0")});
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ThresholdGroupSize)->Arg(8)->Arg(64)->Arg(512);

void BM_SpeaksForActivation(benchmark::State& state) {
  // N statements from a delegator, all activated through speaks-for.
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Workspace::Options opts;
    opts.principal = "alice";
    Workspace ws(opts);
    (void)ws.Load("prin(alice). prin(bob).");
    (void)ws.Load(lbtrust::trust::SpeaksForRule("bob"));
    for (int i = 0; i < n; ++i) {
      auto code = lbtrust::meta::QuoteRuleText(
          lbtrust::util::StrCat("stmt(", i, ")."));
      (void)ws.AddFact("says",
                       {Value::Sym("bob"), Value::Sym("alice"), *code});
    }
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpeaksForActivation)->Arg(100)->Arg(1000);

}  // namespace
