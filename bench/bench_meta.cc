// Meta-programming ablations: reflection cost per installed rule, quoted
// pattern-match throughput, and the codegen (active-rule installation)
// loop — the machinery behind §3.3/§4.
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "datalog/workspace.h"
#include "meta/codegen.h"
#include "meta/meta_model.h"
#include "util/strings.h"

namespace {

using lbtrust::datalog::Value;
using lbtrust::datalog::Workspace;

void BM_RuleInstall(benchmark::State& state) {
  bool with_meta = state.range(0) != 0;
  for (auto _ : state) {
    Workspace ws;
    if (with_meta) {
      auto st = lbtrust::meta::EnableMetaModel(&ws);
      if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    }
    for (int i = 0; i < 100; ++i) {
      auto st = ws.AddRuleText(lbtrust::util::StrCat(
          "out", i, "(X,Y) <- in", i, "(X,Z), mid", i, "(Z,Y)."));
      if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    }
    benchmark::DoNotOptimize(ws.rules());
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.SetLabel(with_meta ? "reflection on" : "reflection off");
}
BENCHMARK(BM_RuleInstall)->Arg(0)->Arg(1);

void BM_QuotedPatternMatch(benchmark::State& state) {
  // N code values probed by a pattern rule per fixpoint.
  int n = static_cast<int>(state.range(0));
  Workspace ws;
  (void)ws.Load(
      "got(P,O) <- said([| access(P,O,read). |]).");
  Value first;
  for (int i = 0; i < n; ++i) {
    auto code = lbtrust::meta::QuoteRuleText(lbtrust::util::StrCat(
        "access(u", i, ",f", i % 7, ",", i % 2 ? "read" : "write", ")."));
    if (i == 0) first = *code;
    (void)ws.AddFact("said", {*code});
  }
  for (auto _ : state) {
    // Re-evaluate the pattern probe every time: a retraction forces the
    // next Fixpoint() onto the full path.
    (void)ws.RemoveFact("said", {first});
    (void)ws.AddFact("said", {first});
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QuotedPatternMatch)->Arg(1000)->Arg(10000);

void BM_CodegenActivation(benchmark::State& state) {
  // Facts derived into `active` become installed facts: measures the
  // codegen round-trip per activated item.
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Workspace ws;
    (void)ws.Load("active([| granted(X). |]) <- request(X).");
    for (int i = 0; i < n; ++i) {
      (void)ws.AddFact("request", {Value::Int(i)});
    }
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CodegenActivation)->Arg(100)->Arg(1000);

void BM_CodeValueConstruction(benchmark::State& state) {
  // Quoted-head construction: one new code value per derived tuple.
  int n = static_cast<int>(state.range(0));
  Workspace ws;
  (void)ws.Load("out([| claim(X,Y). |]) <- in(X,Y).");
  for (int i = 0; i < n; ++i) {
    (void)ws.AddFact("in", {Value::Int(i), Value::Int(i + 1)});
  }
  for (auto _ : state) {
    // Re-derive the code values every time: a retraction forces the next
    // Fixpoint() onto the full path.
    (void)ws.RemoveFact("in", {Value::Int(0), Value::Int(1)});
    (void)ws.AddFact("in", {Value::Int(0), Value::Int(1)});
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CodeValueConstruction)->Arg(1000)->Arg(10000);

}  // namespace
