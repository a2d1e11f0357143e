// Lint overhead on program ingress: Workspace::Load with the analyzer off
// vs. the default warn-mode, over a paper-listings-style corpus (secure
// routing, delegation chains, says-quoted policy shipping, an aggregate
// tally). The acceptance budget for the ingress analyzer is <5% overhead
// on AddProgram/Load. BM_LintProgramAlone times LintProgram without a
// workspace: it parses and routes the corpus text, then analyzes it.
//
// Measurement note: the lint:0/lint:1 delta is ~10us against a ~230us
// Load (~4.5%), but single alternating runs of this binary are noisier
// than the effect — the Load baseline itself swings ~10% run-to-run.
// Compare medians of several runs per arm (or an interleaved-batch
// harness) rather than one pair. The program-level passes keep their
// state in a thread-local arena; each rule's safety check builds the same
// RulePlan that CompileRule lowers.
#include <benchmark/benchmark.h>

#include "datalog/lint.h"
#include "datalog/workspace.h"

namespace {

using lbtrust::datalog::LintOptions;
using lbtrust::datalog::LintProgram;
using lbtrust::datalog::Workspace;

// Representative of the paper's listings: recursive reachability, a
// negation guard, delegation via quoted says-rules, and an aggregate —
// every analyzer code path (rule planning, stratification, dead-code,
// drift, says) sees real work.
constexpr const char* kCorpus =
    "neighbor(a, b). neighbor(b, c). neighbor(c, d). neighbor(d, a).\n"
    "reachable(S, D) <- neighbor(S, D).\n"
    "reachable(S, D) <- neighbor(S, Z), reachable(Z, D).\n"
    "unreachable(S, D) <- node(S), node(D), !reachable(S, D).\n"
    "node(a). node(b). node(c). node(d).\n"
    "admin(alice).\n"
    "delegates(alice, bob). delegates(bob, carol).\n"
    "trusted(P) <- admin(P).\n"
    "trusted(P) <- delegates(Q, P), trusted(Q).\n"
    "says(me, bob, [| grant(alice, db). |]) <- trusted(bob).\n"
    "heard(U, R) <- says(U, me, R).\n"
    "vote(red, u1). vote(red, u2). vote(blue, u3).\n"
    "tally(C, N) <- agg<<N = count(U)>> vote(C, U).\n"
    "winner(C) <- tally(C, N), N >= 2.\n"
    "grant(carol, file1, read). grant(dave, file2, write).\n"
    "canread(P, F) <- grant(P, F, read).\n"
    "canread(P, F) <- grant(P, F, write).\n"
    "audit(P, F) <- canread(P, F), trusted(P).\n";

void BM_LoadCorpus(benchmark::State& state) {
  const auto mode = static_cast<Workspace::Options::LintMode>(state.range(0));
  for (auto _ : state) {
    Workspace::Options opts;
    opts.lint = mode;
    Workspace ws(opts);
    auto st = ws.Load(kCorpus);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(ws.last_lint());
  }
}
BENCHMARK(BM_LoadCorpus)
    ->Arg(static_cast<int>(Workspace::Options::LintMode::kOff))
    ->Arg(static_cast<int>(Workspace::Options::LintMode::kWarn))
    ->ArgNames({"lint"});

void BM_LintProgramAlone(benchmark::State& state) {
  for (auto _ : state) {
    auto report = LintProgram(kCorpus, "local", LintOptions{});
    if (report.has_errors()) state.SkipWithError("corpus should be clean");
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_LintProgramAlone);

}  // namespace
