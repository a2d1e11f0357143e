// Static analyzer: one table entry per diagnostic code, exercising the
// parse/safety/stratification/dead-code/arity/type/says analyses, plus
// golden text + JSON output shapes, the join-order smell over compiled
// schedules, workspace ingress wiring (Options::lint), and the guarantee
// that the whole golden corpus and every shipped example stays clean.
#include "datalog/lint.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/workspace.h"
#include "golden_programs.h"

namespace lbtrust::datalog {
namespace {

using ::testing::Test;

LintReport Lint(const std::string& program,
                const LintOptions& opts = LintOptions(),
                const std::string& principal = "alice") {
  return LintProgram(program, principal, opts);
}

bool HasCode(const LintReport& report, const std::string& code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

const Diagnostic& First(const LintReport& report, const std::string& code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) return d;
  }
  static Diagnostic missing;
  ADD_FAILURE() << "no diagnostic with code " << code;
  return missing;
}

// --- Table: one bad program per diagnostic code ---------------------------

// One body literal over 65 columns: past the engine's 64-column cap.
const char* WideRule() {
  static const std::string text = [] {
    std::string t = "p(X) <- wide(X";
    for (int i = 1; i < 65; ++i) t += ", c" + std::to_string(i);
    return t + ").";
  }();
  return text.c_str();
}

struct Case {
  const char* name;
  const char* program;
  const char* code;
  LintSeverity severity;
  /// Substrings the diagnostic message must contain.
  std::vector<const char*> message_contains;
  /// Expected structured fields ("" / -2 = don't check).
  const char* variable = "";
  const char* predicate = "";
  int position = -2;
  bool says_check = false;
  std::vector<std::string> exports;
};

const Case kCases[] = {
    {"parse_error", "p(X <- q(X).", "L000", LintSeverity::kError,
     {"expected"}},
    {"unbound_head_var", "p(X, Y) <- q(X).", "L001", LintSeverity::kError,
     {"head variable 'Y'", "not bound"}, "Y", "p"},
    {"unbound_negation_var", "p(X, Y) <- q(X), !r(X, Y).", "L002",
     LintSeverity::kError,
     {"'Y'", "negated literal", "!r(X,Y)", "shared with the rest"}, "Y", "r",
     1},
    {"unbindable_builtin", "p(X) <- q(X), Y < X.", "L003",
     LintSeverity::kError, {"'Y'", "cannot be bound"}, "Y", "<", 1},
    {"unbindable_equality", "p(X) <- q(X), Y = Z + 1.", "L003",
     LintSeverity::kError, {"neither side"}, "", "=", 1},
    {"aggregate_unbound_input",
     "tally(C, N) <- agg<<N = count(X)>> vote(C, U).", "L004",
     LintSeverity::kError, {"aggregate input variable 'X'"}, "X", "tally"},
    {"aggregate_bound_result",
     "tally(C, N) <- agg<<N = count(U)>> vote(C, U), m(N).", "L004",
     LintSeverity::kError, {"aggregate result variable 'N'"}, "N", "tally"},
    {"expr_unbound", "p(X) <- q(X + Y).", "L005", LintSeverity::kError,
     {"arithmetic", "unbound"}, "", "q", 0},
    {"quoted_var_in_builtin", "p(Y) <- q(Y), Y != [| s(X) |].", "L003",
     LintSeverity::kError, {"'X'", "cannot be bound"}, "X", "!=", 1},
    {"quoted_var_in_negation", "p([| s(X) |]) <- q(Y), !r(Y, [| s(X) |]).",
     "L002", LintSeverity::kError, {"'X'", "negated literal"}, "X", "r", 1},
    {"column_cap", WideRule(), "L030", LintSeverity::kError,
     {"'wide' has 65 columns", "limited to 64 columns"}, "", "wide", 0},
    {"negation_cycle", "p(X) <- q(X), !p(X).", "L010", LintSeverity::kError,
     {"p -!-> p", "not stratifiable"}, "", "p"},
    {"aggregation_cycle",
     "t(C, N) <- agg<<N = count(U)>> v(C, U).\n"
     "v(C, U) <- t(C, U), w(U).",
     "L010", LintSeverity::kError, {"-!->", "not stratifiable"}},
    {"dead_rule", "goal(X) <- q(X).\norphan(X) <- q(X).", "L020",
     LintSeverity::kWarning, {"dead rule", "'orphan'"}, "", "orphan", -2,
     false, {"goal"}},
    {"derived_never_read", "goal(X) <- aux(X).\naux(X) <- q(X).\n"
     "extra(X) <- aux(X).",
     "L021", LintSeverity::kWarning, {"'extra'", "never read"}, "", "extra",
     -2, false, {"goal"}},
    {"arity_drift", "p(X) <- q(X).\nq(a, b).", "L030", LintSeverity::kError,
     {"'q'", "arity"}, "", "q"},
    {"builtin_arity", "p(X) <- q(X), int(X, X).", "L030",
     LintSeverity::kError, {"builtin 'int'", "expects 1"}, "", "int"},
    {"constant_type_drift", "r(s).\np(X) <- q(X), r(1).", "L031",
     LintSeverity::kWarning, {"can never unify", "'r'"}, "", "r", 1},
    {"says_foreign_speaker", "says(bob, carol, X) <- q(X).", "L060",
     LintSeverity::kError, {"'bob'", "cannot speak"}, "", "says", -2, true},
    {"says_variable_speaker", "says(U, carol, X) <- q(U, X).", "L060",
     LintSeverity::kWarning, {"variable speaker 'U'"}, "U", "says", -2, true},
    {"says_foreign_destination", "p(X) <- says(U, bob, X).", "L060",
     LintSeverity::kError, {"addressed to 'bob'", "cannot receive"}, "",
     "says", 0, true},
};

TEST(DatalogLintTest, DiagnosticTable) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    LintOptions opts;
    opts.says_check = c.says_check;
    opts.says_principal = "alice";
    opts.exports = c.exports;
    LintReport report = Lint(c.program, opts);
    ASSERT_TRUE(HasCode(report, c.code)) << report.ToText();
    const Diagnostic& d = First(report, c.code);
    EXPECT_EQ(d.severity, c.severity) << report.ToText();
    for (const char* piece : c.message_contains) {
      EXPECT_NE(d.message.find(piece), std::string::npos)
          << "missing \"" << piece << "\" in: " << d.message;
    }
    if (c.variable[0] != '\0') EXPECT_EQ(d.variable, c.variable);
    if (c.predicate[0] != '\0') EXPECT_EQ(d.predicate, c.predicate);
    if (c.position != -2) EXPECT_EQ(d.position, c.position);
    // Severity gates: errors must fail ToStatus, warnings must not.
    if (c.severity == LintSeverity::kError) {
      EXPECT_FALSE(report.ToStatus().ok());
    }
  }
}

TEST(DatalogLintTest, CleanProgramHasNoDiagnostics) {
  LintReport report = Lint(
      "path(X, Y) <- edge(X, Y).\n"
      "path(X, Z) <- path(X, Y), edge(Y, Z).\n"
      "edge(a, b). edge(b, c).");
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToText();
  EXPECT_TRUE(report.ToStatus().ok());
}

TEST(DatalogLintTest, WildcardNegationIsLegal) {
  // A negation variable used nowhere else is a wildcard, not a safety
  // violation (the engine schedules it the same way).
  LintReport report = Lint(
      "user(a). knows(a, b).\n"
      "lonely(U) <- user(U), !knows(U, V).");
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToText();
}

TEST(DatalogLintTest, QuotedPatternVariablesBindOnMatch) {
  // Variables inside quoted code bind when the pattern matches, as the
  // engine schedules them: Binder's pull requester binds X through the
  // `active` pattern, and the file store's grant rule binds R and F
  // through the quoted `permok` it hears.
  for (const char* program :
       {"pull0: says(me,X,[| request(R). |]) <- "
        "active([| A <- says(X,me,R), A*. |]), X != me.",
        "fs2: granted(R,F) <- says(O,me,[| permok(R,F). |]), "
        "fileowner(F,O)."}) {
    LintReport report = Lint(program);
    EXPECT_TRUE(report.diagnostics.empty()) << program << "\n"
                                            << report.ToText();
  }
}

TEST(DatalogLintTest, StatusCodesMatchEngine) {
  EXPECT_EQ(Lint("p(X, Y) <- q(X).").ToStatus().code(),
            util::StatusCode::kUnsafeProgram);
  EXPECT_EQ(Lint("p(X) <- q(X), !p(X).").ToStatus().code(),
            util::StatusCode::kNotStratifiable);
  EXPECT_EQ(Lint("p(X) <- q(X).\nq(a, b).").ToStatus().code(),
            util::StatusCode::kTypeError);
}

TEST(DatalogLintTest, StratificationCyclePathIsFull) {
  // Indirect cycle: the path must walk every predicate on the loop.
  LintReport report = Lint(
      "a(X) <- c(X), !b(X).\n"
      "b(X) <- a(X).\n"
      "c(a).");
  ASSERT_TRUE(HasCode(report, "L010")) << report.ToText();
  const Diagnostic& d = First(report, "L010");
  EXPECT_NE(d.message.find("b -!-> a -> b"), std::string::npos) << d.message;
}

// --- Golden output shapes -------------------------------------------------

TEST(DatalogLintTest, GoldenTextOutput) {
  LintReport report = Lint("p(X, Y) <- q(X).");
  EXPECT_EQ(report.ToText(),
            "L001 error: head variable 'Y' is not bound by any positive "
            "body literal in p(X,Y) <- q(X).\n");
}

TEST(DatalogLintTest, GoldenJsonOutput) {
  LintReport report = Lint("p(X, Y) <- q(X).");
  EXPECT_EQ(
      report.ToJson(),
      "{\"diagnostics\":[{\"code\":\"L001\",\"severity\":\"error\","
      "\"rule\":0,\"source\":\"p(X,Y) <- q(X).\",\"predicate\":\"p\","
      "\"variable\":\"Y\",\"position\":-1,\"message\":\"head variable 'Y' "
      "is not bound by any positive body literal in p(X,Y) <- q(X).\"}],"
      "\"errors\":1,\"warnings\":0}");
}

TEST(DatalogLintTest, EmptyReportJsonShape) {
  LintReport report;
  EXPECT_EQ(report.ToJson(), "{\"diagnostics\":[],\"errors\":0,\"warnings\":0}");
}

// --- Join-order smell over compiled schedules -----------------------------

TEST(DatalogLintTest, JoinOrderSmellFlagsLeadingScan) {
  // The BM_JoinOrderSelectiveLast shape: the greedy scheduler leads with
  // a blind scan of `wide` even though `narrow` is far smaller.
  auto rule = ParseRuleText("out(X, Y) <- wide(X, Y), narrow(Y).");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  BuiltinRegistry builtins;
  RegisterStandardBuiltins(&builtins);
  auto compiled = CompileRule(*rule, builtins);
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  auto rows = [](const std::string& pred) -> size_t {
    if (pred == "wide") return 100000;
    if (pred == "narrow") return 10;
    return kUnknownRows;
  };
  std::vector<Diagnostic> out;
  LintJoinOrder(**compiled, 7, rows, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].code, "L050");
  EXPECT_EQ(out[0].severity, LintSeverity::kWarning);
  EXPECT_EQ(out[0].rule_index, 7);
  EXPECT_NE(out[0].message.find("'wide' (100000 rows)"), std::string::npos)
      << out[0].message;
  EXPECT_NE(out[0].message.find("'narrow' (10 rows)"), std::string::npos)
      << out[0].message;

  // Balanced cardinalities: no smell.
  auto even = [](const std::string&) -> size_t { return 100; };
  out.clear();
  LintJoinOrder(**compiled, 7, even, &out);
  EXPECT_TRUE(out.empty());
}

TEST(DatalogLintTest, JoinOrderSmellExemptsRecursiveLead) {
  // Semi-naive evaluation drives recursion from the delta orders, so a
  // large self-recursive lead is not a smell.
  auto rule = ParseRuleText("path(X, Z) <- path(X, Y), edge(Y, Z).");
  ASSERT_TRUE(rule.ok());
  BuiltinRegistry builtins;
  RegisterStandardBuiltins(&builtins);
  auto compiled = CompileRule(*rule, builtins);
  ASSERT_TRUE(compiled.ok());
  auto rows = [](const std::string& pred) -> size_t {
    return pred == "path" ? 100000 : 10;
  };
  std::vector<Diagnostic> out;
  LintJoinOrder(**compiled, 0, rows, &out);
  EXPECT_TRUE(out.empty());
}

// --- Corpus cleanliness ---------------------------------------------------

TEST(DatalogLintTest, GoldenCorpusIsClean) {
  for (size_t i = 0; i < lbtrust::testing::kNumGoldenPrograms; ++i) {
    const auto& gp = lbtrust::testing::kGoldenPrograms[i];
    SCOPED_TRACE(gp.name);
    LintReport report = LintProgram(gp.program, gp.principal);
    EXPECT_FALSE(report.has_errors()) << report.ToText();
    EXPECT_TRUE(report.diagnostics.empty()) << report.ToText();
  }
}

// --- Workspace ingress wiring ---------------------------------------------

TEST(DatalogLintTest, WorkspaceWarnModeCollectsWithoutRejecting) {
  Workspace ws;  // default lint = kWarn
  // Dead-code warning (sink inference does not fire here: reach(X) is the
  // sink root and everything feeds it) — use a says-free warning shape:
  // constant type drift.
  ASSERT_TRUE(ws.Load("r(s).\np(X) <- q(X), r(1).\nq(a).").ok());
  EXPECT_FALSE(ws.last_lint().has_errors());
  ASSERT_FALSE(ws.last_lint().diagnostics.empty());
  EXPECT_EQ(ws.last_lint().diagnostics[0].code, "L031");
}

TEST(DatalogLintTest, WorkspaceEnforceModeRejectsBeforeInstall) {
  Workspace::Options options;
  options.lint = Workspace::Options::LintMode::kEnforce;
  Workspace ws(options);
  ASSERT_TRUE(ws.Load("good(X) <- base(X).").ok());
  util::Status status = ws.Load("good(X) <- base(X).\nbad(X, Y) <- base(X).");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kUnsafeProgram);
  EXPECT_NE(status.message().find("L001"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("'Y'"), std::string::npos)
      << status.message();
  // Nothing from the rejected program installed — the duplicate `good`
  // rule would have been a no-op anyway, so probe via the bad head.
  ASSERT_TRUE(ws.AddFact("base", {Value::Sym("a")}).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  auto rows = ws.Query("bad(X, Y)");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(DatalogLintTest, WorkspaceOffModeSkipsAnalysis) {
  Workspace::Options options;
  options.lint = Workspace::Options::LintMode::kOff;
  Workspace ws(options);
  ASSERT_TRUE(ws.Load("r(s).\np(X) <- q(X), r(1).\nq(a).").ok());
  EXPECT_TRUE(ws.last_lint().diagnostics.empty());
}

TEST(DatalogLintTest, WorkspaceLintRulesSeesStoreCardinalities) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("out(X, Y) <- wide(X, Y), narrow(Y).").ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        ws.AddFact("wide", {Value::Int(i), Value::Int(i + 1)}).ok());
  }
  ASSERT_TRUE(ws.AddFact("narrow", {Value::Int(1)}).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  LintReport report = ws.LintRules();
  ASSERT_TRUE(HasCode(report, "L050")) << report.ToText();
  const Diagnostic& d = First(report, "L050");
  EXPECT_NE(d.message.find("'wide' (64 rows)"), std::string::npos)
      << d.message;
}

TEST(DatalogLintTest, ExplainRulesCarriesDiagnostics) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("out(X, Y) <- wide(X, Y), narrow(Y).").ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        ws.AddFact("wide", {Value::Int(i), Value::Int(i + 1)}).ok());
  }
  ASSERT_TRUE(ws.AddFact("narrow", {Value::Int(1)}).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  std::string json = ws.ExplainRules(ExplainFormat::kJson);
  EXPECT_NE(json.find("\"diagnostics\":[{\"code\":\"L050\""),
            std::string::npos)
      << json;
  std::string text = ws.ExplainRules(ExplainFormat::kText);
  EXPECT_NE(text.find("  diagnostics:\n    L050 warning:"),
            std::string::npos)
      << text;
}

TEST(DatalogLintTest, PreparedQueryExplainHasDiagnosticsArray) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("edge(a, b).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  auto query = ws.Prepare("edge(X, Y)");
  ASSERT_TRUE(query.ok());
  std::string json = query->Explain(ExplainFormat::kJson);
  EXPECT_NE(json.find("\"diagnostics\":[]"), std::string::npos) << json;
}

}  // namespace
}  // namespace lbtrust::datalog
