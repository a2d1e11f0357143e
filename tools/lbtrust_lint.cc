// lbtrust_lint — offline policy vetting: run the static analyzer over
// Datalog / SeNDlog program files (or stdin) and report diagnostics as
// text or JSON. Nonzero exit when findings reach the --fail-on threshold,
// so the tool gates CI (tools/ci.sh lints examples/ and the golden corpus
// with it).
//
// Usage:
//   lbtrust_lint [flags] file.lb [file2.lb ...]      lint program files
//   lbtrust_lint [flags] -                           lint stdin
//   lbtrust_lint --corpus                            lint the golden corpus
//
// Flags:
//   --json                 machine-readable output (one object per input)
//   --sendlog              inputs are SeNDlog surface programs (lowered
//                          through CompileSendlog before analysis)
//   --principal=P          principal `me` resolves to (default "local")
//   --exports=a,b,c        queryable predicates: dead-code roots, and
//                          enables derived-but-never-read (L021)
//   --says-check           enable says-attribution checks (L060)
//   --fail-on=error|warning|none   exit-1 threshold (default error)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "datalog/builtins.h"
#include "datalog/eval.h"
#include "datalog/lint.h"
#include "datalog/parser.h"
#include "obs/metrics.h"
#include "sendlog/sendlog.h"
#include "golden_programs.h"

namespace {

using lbtrust::datalog::Diagnostic;
using lbtrust::datalog::LintOptions;
using lbtrust::datalog::LintReport;
using lbtrust::datalog::LintSeverity;
using lbtrust::datalog::LintSeverityName;

struct Flags {
  bool json = false;
  bool sendlog = false;
  bool says_check = false;
  bool corpus = false;
  std::string principal = "local";
  std::vector<std::string> exports;
  std::string fail_on = "error";
  std::vector<std::string> inputs;
};

void SplitCsv(const std::string& csv, std::vector<std::string>* out) {
  std::string piece;
  std::stringstream ss(csv);
  while (std::getline(ss, piece, ',')) {
    if (!piece.empty()) out->push_back(piece);
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: lbtrust_lint [--json] [--sendlog] [--says-check]\n"
      "                    [--principal=P] [--exports=a,b]\n"
      "                    [--fail-on=error|warning|none] <file.lb ...|->\n"
      "       lbtrust_lint --corpus   (lint the built-in golden corpus)\n");
  return 2;
}

/// Appends L050 join-order findings using static fact counts from the
/// program text itself — the offline stand-in for live store
/// cardinalities (Workspace::LintRules uses the real ones). Rule indexes
/// follow LintProgram's routed rule list.
void AddJoinOrderFindings(const std::string& text,
                          const std::string& principal, LintReport* report) {
  using lbtrust::datalog::RoutedClause;
  auto routed = lbtrust::datalog::RouteProgram(text, principal);
  if (!routed.ok()) return;  // L000 already reported
  std::map<std::string, size_t> fact_counts;
  std::vector<std::pair<int, const lbtrust::datalog::Rule*>> rules;
  int rule_index = 0;
  for (const RoutedClause& item : *routed) {
    if (item.kind != RoutedClause::Kind::kRule) continue;
    if (lbtrust::datalog::IsGroundFactRule(item.rule)) {
      ++fact_counts[item.rule.heads[0].predicate];
    } else {
      rules.emplace_back(rule_index, &item.rule);
    }
    ++rule_index;
  }
  lbtrust::datalog::BuiltinRegistry builtins;
  lbtrust::datalog::RegisterStandardBuiltins(&builtins);
  auto rows = [&fact_counts](const std::string& pred) -> size_t {
    auto it = fact_counts.find(pred);
    return it == fact_counts.end() ? lbtrust::datalog::kUnknownRows
                                   : it->second;
  };
  for (const auto& [index, rule] : rules) {
    auto compiled = lbtrust::datalog::CompileRule(*rule, builtins);
    if (!compiled.ok()) continue;  // safety errors already reported
    lbtrust::datalog::LintJoinOrder(**compiled, index, rows,
                                    &report->diagnostics);
  }
}

LintReport LintOne(const std::string& text, const Flags& flags) {
  if (flags.sendlog) {
    LintReport report;
    auto core = lbtrust::sendlog::CompileSendlog(text, &report);
    if (!core.ok() && report.diagnostics.empty()) {
      // Surface-level failure (parse, constant contexts): report as L000.
      Diagnostic d;
      d.severity = LintSeverity::kError;
      d.code = "L000";
      d.message = core.status().message();
      report.diagnostics.push_back(std::move(d));
    }
    return report;
  }
  LintOptions opts;
  opts.says_check = flags.says_check;
  opts.says_principal = flags.principal;
  opts.exports = flags.exports;
  LintReport report =
      lbtrust::datalog::LintProgram(text, flags.principal, opts);
  AddJoinOrderFindings(text, flags.principal, &report);
  return report;
}

bool Fails(const LintReport& report, const std::string& fail_on) {
  if (fail_on == "none") return false;
  if (fail_on == "warning") {
    return report.errors() + report.warnings() > 0;
  }
  return report.has_errors();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      flags.json = true;
    } else if (arg == "--sendlog") {
      flags.sendlog = true;
    } else if (arg == "--says-check") {
      flags.says_check = true;
    } else if (arg == "--corpus") {
      flags.corpus = true;
    } else if (arg.rfind("--principal=", 0) == 0) {
      flags.principal = arg.substr(std::strlen("--principal="));
    } else if (arg.rfind("--exports=", 0) == 0) {
      SplitCsv(arg.substr(std::strlen("--exports=")), &flags.exports);
    } else if (arg.rfind("--fail-on=", 0) == 0) {
      flags.fail_on = arg.substr(std::strlen("--fail-on="));
      if (flags.fail_on != "error" && flags.fail_on != "warning" &&
          flags.fail_on != "none") {
        return Usage();
      }
    } else if (arg == "-" || arg[0] != '-') {
      flags.inputs.push_back(arg);
    } else {
      return Usage();
    }
  }
  if (flags.corpus != flags.inputs.empty()) return Usage();

  struct Input {
    std::string name;
    std::string text;
    std::string principal;  ///< corpus entries carry their own
  };
  std::vector<Input> inputs;
  if (flags.corpus) {
    for (size_t i = 0; i < lbtrust::testing::kNumGoldenPrograms; ++i) {
      const auto& gp = lbtrust::testing::kGoldenPrograms[i];
      inputs.push_back({std::string("corpus:") + gp.name, gp.program,
                        gp.principal});
    }
  } else {
    for (const std::string& path : flags.inputs) {
      Input input;
      input.name = path;
      input.principal = flags.principal;
      if (path == "-") {
        std::stringstream ss;
        ss << std::cin.rdbuf();
        input.text = ss.str();
        input.name = "<stdin>";
      } else {
        std::ifstream f(path);
        if (!f) {
          std::fprintf(stderr, "lbtrust_lint: cannot read %s\n",
                       path.c_str());
          return 2;
        }
        std::stringstream ss;
        ss << f.rdbuf();
        input.text = ss.str();
      }
      inputs.push_back(std::move(input));
    }
  }

  bool failed = false;
  std::string json_out = "[";
  for (size_t i = 0; i < inputs.size(); ++i) {
    Flags per = flags;
    per.principal = inputs[i].principal;
    LintReport report = LintOne(inputs[i].text, per);
    if (Fails(report, flags.fail_on)) failed = true;
    if (flags.json) {
      if (i != 0) json_out.push_back(',');
      json_out += "{\"file\":\"";
      json_out += lbtrust::obs::LabelEscape(inputs[i].name);
      json_out += "\",\"report\":";
      json_out += report.ToJson();
      json_out.push_back('}');
    } else if (!report.diagnostics.empty()) {
      std::printf("%s:\n", inputs[i].name.c_str());
      for (const Diagnostic& d : report.diagnostics) {
        std::printf("  %s %s: %s\n", d.code.c_str(),
                    LintSeverityName(d.severity), d.message.c_str());
      }
    }
  }
  if (flags.json) {
    json_out += "]\n";
    std::fputs(json_out.c_str(), stdout);
  } else if (!failed) {
    std::printf("lbtrust_lint: %zu input(s) clean at --fail-on=%s\n",
                inputs.size(), flags.fail_on.c_str());
  }
  return failed ? 1 : 0;
}
