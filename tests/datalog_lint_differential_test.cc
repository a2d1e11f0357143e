// Randomized lint <=> engine differentials. Over thousands of generated
// single-head rules, the static analyzer reports an error exactly when
// CompileRule rejects the rule, with the same status code: both sides read
// one RulePlan, so any mismatch means a check drifted from the planner.
// Over generated multi-rule programs, L010 fires exactly when Stratify
// rejects the program, and its first cycle is the one Stratify names: both
// read StratifyGraph. A failure prints its seed and program text;
// GenerateRule(seed) and GenerateProgram(seed) replay it.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/analysis.h"
#include "datalog/eval.h"
#include "datalog/lint.h"
#include "datalog/parser.h"

namespace lbtrust::datalog {
namespace {

constexpr uint64_t kBaseSeed = 0x5eed0000;
constexpr int kRules = 12000;
constexpr int kPrograms = 4000;

/// SplitMix64: portable, so a printed seed replays on any platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  bool Percent(int p) { return Below(100) < p; }

 private:
  uint64_t state_;
};

/// Builds rule text over relations r0..r3 (one arity each per rule, now
/// and then 65 columns), builtins, equalities, arithmetic and quoted-code
/// columns, wildcard negation variables and aggregates. The head predicate
/// never occurs in the body, so no rule can trip the stratification check.
class RuleGen {
 public:
  explicit RuleGen(uint64_t seed) : rng_(seed) {
    for (int& a : arity_) a = rng_.Percent(2) ? 65 : 1 + rng_.Below(3);
  }

  std::string Rule() {
    const int nbody = 1 + rng_.Below(5);
    std::vector<std::string> body;
    for (int i = 0; i < nbody; ++i) body.push_back(Literal());
    std::string agg;
    std::vector<std::string> head_args;
    if (rng_.Percent(12)) {
      static const char* kFns[] = {"count", "total", "min", "max"};
      const std::string result = rng_.Percent(85) ? "N" : Var();
      agg = "agg<<" + result + " = " + kFns[rng_.Below(4)] + "(" + Var() +
            ")>> ";
      head_args.push_back(result);
    }
    const int head_arity = rng_.Percent(1) ? 65 : rng_.Below(3);
    for (int i = 0; i < head_arity; ++i) head_args.push_back(HeadTerm());
    std::string text = "h" + Args(head_args) + " <- " + agg;
    for (size_t i = 0; i < body.size(); ++i) {
      text += (i == 0 ? "" : ", ") + body[i];
    }
    return text + ".";
  }

 private:
  std::string Var() {
    static const char* kVars[] = {"A", "B", "C", "D", "E"};
    return kVars[rng_.Below(5)];
  }

  std::string Quoted() {
    if (rng_.Percent(25)) return "[| s(" + Var() + ") <- t(" + Var() + "). |]";
    return "[| s(" + Var() + ") |]";
  }

  std::string Term() {
    const int roll = rng_.Below(100);
    if (roll < 58) return Var();
    if (roll < 68) return rng_.Percent(50) ? "a" : "1";
    if (roll < 78) return Var() + " + " + (rng_.Percent(50) ? "1" : Var());
    if (roll < 92) return Quoted();
    return "_";
  }

  std::string HeadTerm() {
    const int roll = rng_.Below(100);
    if (roll < 75) return Var();
    if (roll < 82) return "a";
    if (roll < 90) return Var() + " + 1";
    return Quoted();
  }

  std::string Args(const std::vector<std::string>& args) {
    std::string out = "(";
    for (size_t i = 0; i < args.size(); ++i) {
      out += (i == 0 ? "" : ", ") + args[i];
    }
    return out + ")";
  }

  std::string Relation(bool negated) {
    const int pred = rng_.Below(4);
    std::vector<std::string> args;
    for (int i = 0; i < arity_[pred]; ++i) {
      // A fresh variable in a negation is a wildcard.
      args.push_back(negated && rng_.Percent(20)
                         ? "W" + std::to_string(next_wildcard_++)
                         : Term());
    }
    return (negated ? "!r" : "r") + std::to_string(pred) + Args(args);
  }

  std::string Literal() {
    const int roll = rng_.Below(100);
    if (roll < 45) return Relation(false);
    if (roll < 60) return Relation(true);
    if (roll < 78) {
      static const char* kOps[] = {"<", "<=", ">", ">=", "!="};
      return Term() + " " + kOps[rng_.Below(5)] + " " + Term();
    }
    if (roll < 85) {
      // int/1, sometimes negated, sometimes at the wrong arity.
      std::vector<std::string> args = {Term()};
      if (rng_.Percent(15)) args.push_back(Term());
      return (rng_.Percent(25) ? "!int" : "int") + Args(args);
    }
    return Term() + " = " + Term();
  }

  Rng rng_;
  int arity_[4];
  int next_wildcard_ = 0;
};

std::string GenerateRule(uint64_t seed) { return RuleGen(seed).Rule(); }

bool IsPlanCode(const std::string& code) {
  return code == "L001" || code == "L002" || code == "L003" ||
         code == "L004" || code == "L005" || code == "L030";
}

TEST(LintCompileDifferential, LintErrorIffCompileRejects) {
  BuiltinRegistry builtins;
  RegisterStandardBuiltins(&builtins);
  std::map<std::string, int> seen;  // lint error code -> rules
  int compiled_ok = 0;
  int mismatches = 0;
  for (int i = 0; i < kRules && mismatches < 10; ++i) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(i);
    const std::string text = GenerateRule(seed);
    auto routed = RouteProgram(text, "alice");
    ASSERT_TRUE(routed.ok() && routed->size() == 1 &&
                (*routed)[0].kind == RoutedClause::Kind::kRule)
        << "seed " << seed << " generated an unusable clause: " << text;
    auto compiled = CompileRule((*routed)[0].rule, builtins);
    LintReport lint = LintProgram(text, "alice");
    const util::Status lint_status = lint.ToStatus();
    const util::Status& compile_status = compiled.status();
    bool ok = lint.has_errors() != compiled.ok() &&
              lint_status.code() == compile_status.code();
    for (const Diagnostic& d : lint.diagnostics) {
      if (d.severity != LintSeverity::kError) continue;
      ok = ok && IsPlanCode(d.code);
      ++seen[d.code];
    }
    if (compiled.ok()) ++compiled_ok;
    if (!ok) {
      ++mismatches;
      ADD_FAILURE() << "seed " << seed << ": " << text
                    << "\n  compile: " << compile_status.ToString()
                    << "\n  lint: " << lint.ToText();
    }
  }
  // The generator must keep exercising every verdict.
  EXPECT_GT(compiled_ok, kRules / 10);
  for (const char* code : {"L001", "L002", "L003", "L004", "L005", "L030"}) {
    EXPECT_GT(seen[code], 0) << code << " never produced";
  }
}

/// Programs of 2-6 rules over p0..p5 and an EDB relation e: every rule
/// binds X through a positive literal, then adds negated or positive
/// literals over the same predicates, or aggregates one of them, so
/// negative cycles of every length show up next to stratifiable programs.
std::string GenerateProgram(uint64_t seed) {
  Rng rng(seed);
  auto pred = [&rng] { return "p" + std::to_string(rng.Below(6)); };
  std::string text;
  const int nrules = 2 + rng.Below(5);
  for (int r = 0; r < nrules; ++r) {
    const std::string head = pred();
    if (rng.Percent(15)) {
      text += head + "(N) <- agg<<N = count(X)>> " + pred() + "(X).\n";
      continue;
    }
    text += head + "(X) <- " + (rng.Percent(30) ? "e" : pred()) + "(X)";
    for (int extra = rng.Below(3); extra > 0; --extra) {
      text += std::string(rng.Percent(40) ? ", !" : ", ") + pred() + "(X)";
    }
    text += ".\n";
  }
  return text;
}

TEST(LintStratifyDifferential, L010IffStratifyRejects) {
  BuiltinRegistry builtins;
  RegisterStandardBuiltins(&builtins);
  int rejected = 0;
  int mismatches = 0;
  for (int i = 0; i < kPrograms && mismatches < 10; ++i) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(i);
    const std::string text = GenerateProgram(seed);
    auto routed = RouteProgram(text, "alice");
    ASSERT_TRUE(routed.ok()) << "seed " << seed << ": " << text;
    std::vector<const Rule*> rules;
    for (const RoutedClause& clause : *routed) rules.push_back(&clause.rule);
    auto strat = Stratify(rules, builtins);
    const std::string prefix = "through the recursive cycle ";
    std::vector<std::string> cycles;  // L010 cycle texts, in report order
    for (const Diagnostic& d : LintProgram(text, "alice").diagnostics) {
      if (d.code != "L010") continue;
      const size_t at = d.message.find(prefix);
      cycles.push_back(at == std::string::npos
                           ? d.message
                           : d.message.substr(at + prefix.size()));
    }
    bool ok = strat.ok() == cycles.empty();
    if (!strat.ok()) {
      ++rejected;
      ok = ok && strat.status().code() == util::StatusCode::kNotStratifiable &&
           strat.status().message().find("(cycle: " + cycles[0] + ")") !=
               std::string::npos;
    }
    if (!ok) {
      ++mismatches;
      ADD_FAILURE() << "seed " << seed << ":\n" << text
                    << "  stratify: " << strat.status().ToString()
                    << "\n  L010 cycles: " << cycles.size()
                    << (cycles.empty() ? "" : " first: " + cycles[0]);
    }
  }
  // The generator must keep exercising both verdicts.
  EXPECT_GT(rejected, kPrograms / 10);
  EXPECT_LT(rejected, kPrograms * 9 / 10);
}

}  // namespace
}  // namespace lbtrust::datalog
