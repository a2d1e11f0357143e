// Representation differential: the interned (ValueId) engine must be
// observationally identical to the seed (shared_ptr Value) representation.
// tests/golden_dumps.inc holds Workspace::Dump output captured from the
// PRE-interning engine (PR 2 tree) for every corpus program in
// tests/golden_programs.h; this suite replays the corpus through the
// current engine — on the default options, the naive ablation, a warm-store
// full rebuild and the parallel evaluator — and requires byte-identical
// dumps.
#include <string>

#include <gtest/gtest.h>

#include "datalog/dump.h"
#include "datalog/workspace.h"
#include "golden_programs.h"

namespace lbtrust::datalog {
namespace {

#include "golden_dumps.inc"

static_assert(sizeof(kGoldenDumps) / sizeof(kGoldenDumps[0]) ==
                  lbtrust::testing::kNumGoldenPrograms,
              "golden_dumps.inc is out of sync with golden_programs.h — "
              "regenerate with tools/gen_goldens.cc");

std::string RunAndDump(const lbtrust::testing::GoldenProgram& prog,
                       bool naive) {
  Workspace::Options opts;
  opts.principal = prog.principal;
  opts.naive_eval = naive;
  Workspace ws(opts);
  auto load = ws.Load(prog.program);
  EXPECT_TRUE(load.ok()) << prog.name << ": " << load.ToString();
  auto fix = ws.Fixpoint();
  EXPECT_TRUE(fix.ok()) << prog.name << ": " << fix.ToString();
  return DumpWorkspace(ws, 0);
}

class InternDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(InternDifferentialTest, DumpMatchesSeedRepresentation) {
  const auto& prog = lbtrust::testing::kGoldenPrograms[GetParam()];
  EXPECT_EQ(RunAndDump(prog, /*naive=*/false),
            kGoldenDumps[GetParam()])
      << "program: " << prog.name;
}

TEST_P(InternDifferentialTest, NaiveAblationMatchesSeed) {
  const auto& prog = lbtrust::testing::kGoldenPrograms[GetParam()];
  EXPECT_EQ(RunAndDump(prog, /*naive=*/true),
            kGoldenDumps[GetParam()])
      << "program: " << prog.name;
}

TEST_P(InternDifferentialTest, WarmStoreFullRebuildMatchesSeed) {
  // A retraction sends the next Fixpoint() down the full path: the warm
  // store is cleared and rebuilt from the EDB. Retracting and re-adding one
  // EDB fact must rebuild to the identical dump.
  const auto& prog = lbtrust::testing::kGoldenPrograms[GetParam()];
  Workspace::Options opts;
  opts.principal = prog.principal;
  Workspace ws(opts);
  ASSERT_TRUE(ws.Load(prog.program).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  const obs::Counter* full =
      ws.metrics()->GetCounter("lbtrust_fixpoints_total", "path=\"full\"");
  const uint64_t full_before = full->value();
  // Every workspace declares `active`, so every program has this EDB fact.
  const Tuple fact = {Value::Sym("active"), Value::Str("active")};
  ASSERT_TRUE(ws.RemoveFact("pname", fact).ok());
  ASSERT_TRUE(ws.AddFact("pname", fact).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_FALSE(ws.last_fixpoint_incremental());
  EXPECT_GT(full->value(), full_before);
  EXPECT_EQ(DumpWorkspace(ws, 0), kGoldenDumps[GetParam()])
      << "program: " << prog.name;
}

TEST_P(InternDifferentialTest, FactByFactCommitsMatchSeed) {
  // Same corpus, loaded through the Transaction write path with a
  // fixpoint per commit: the delta-aware path over interned storage must
  // land on the identical dump.
  const auto& prog = lbtrust::testing::kGoldenPrograms[GetParam()];
  Workspace::Options opts;
  opts.principal = prog.principal;
  Workspace ws(opts);
  ASSERT_TRUE(ws.Load(prog.program).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  ASSERT_TRUE(ws.Fixpoint().ok());  // idempotent re-run (empty delta)
  EXPECT_EQ(DumpWorkspace(ws, 0), kGoldenDumps[GetParam()])
      << "program: " << prog.name;
}

TEST_P(InternDifferentialTest, ParallelEvaluationMatchesSeed) {
  // The worker-pool evaluator (frozen store snapshot + ordered merge)
  // must reproduce the seed-representation dumps byte-for-byte too:
  // parallel evaluation is observationally identical to sequential.
  const auto& prog = lbtrust::testing::kGoldenPrograms[GetParam()];
  Workspace::Options opts;
  opts.principal = prog.principal;
  opts.threads = 4;
  Workspace ws(opts);
  ASSERT_TRUE(ws.Load(prog.program).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(DumpWorkspace(ws, 0), kGoldenDumps[GetParam()])
      << "program: " << prog.name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, InternDifferentialTest,
    ::testing::Range<size_t>(0, lbtrust::testing::kNumGoldenPrograms),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return lbtrust::testing::kGoldenPrograms[info.param].name;
    });

}  // namespace
}  // namespace lbtrust::datalog
