#include "sendlog/sendlog.h"

#include <map>
#include <memory>

#include "datalog/lint.h"
#include "datalog/parser.h"
#include "datalog/pretty.h"
#include "util/strings.h"

namespace lbtrust::sendlog {

using datalog::Atom;
using datalog::CodeValue;
using datalog::Literal;
using datalog::Rule;
using datalog::SurfaceUnit;
using datalog::Term;
using datalog::Value;
using datalog::ValueKind;
using util::Result;
using util::Status;

namespace {

Term SubstContextTerm(const Term& t, const std::string& context_var);

Atom SubstContextAtom(const Atom& a, const std::string& context_var) {
  Atom out = datalog::CloneAtom(a);
  if (out.partition) {
    out.partition = std::make_shared<Term>(
        SubstContextTerm(*out.partition, context_var));
  }
  for (Term& arg : out.args) arg = SubstContextTerm(arg, context_var);
  return out;
}

Rule SubstContextRule(const Rule& r, const std::string& context_var) {
  Rule out;
  out.label = r.label;
  out.aggregate = r.aggregate;
  for (const Atom& h : r.heads) {
    out.heads.push_back(SubstContextAtom(h, context_var));
  }
  for (const Literal& l : r.body) {
    out.body.push_back(
        Literal{SubstContextAtom(l.atom, context_var), l.negated});
  }
  return out;
}

Term SubstContextTerm(const Term& t, const std::string& context_var) {
  switch (t.kind) {
    case Term::Kind::kVariable:
      if (t.var == context_var) return Term::Me();
      return t;
    case Term::Kind::kExpr:
      return Term::Expr(t.op, SubstContextTerm(*t.lhs, context_var),
                        SubstContextTerm(*t.rhs, context_var));
    case Term::Kind::kPartRef:
      return Term::PartRef(t.part_pred,
                           SubstContextTerm(*t.part_key, context_var));
    case Term::Kind::kConstant:
      if (t.value.kind() == ValueKind::kCode) {
        const CodeValue& code = t.value.AsCode();
        if (code.what == CodeValue::What::kRule) {
          return Term::Constant(Value::CodeRule(std::make_shared<const Rule>(
              SubstContextRule(*code.rule, context_var))));
        }
      }
      return t;
    default:
      return t;
  }
}

std::string UnitToText(const SurfaceUnit& unit) {
  std::string out;
  for (const Rule& rule : unit.rules) {
    Rule lowered = unit.context_is_variable
                       ? SubstContextRule(rule, unit.context)
                       : datalog::CloneRule(rule);
    out += datalog::PrintRule(lowered);
    out += "\n";
  }
  return out;
}

/// Lints one lowered core text. SeNDlog's translation makes the local
/// context `me`, so the says-context checks run against a placeholder
/// self principal: a unit attributing speech to anyone but its own
/// context is an error the paper's semantics never produce.
datalog::LintReport LintLoweredCore(const std::string& core) {
  datalog::LintOptions opts;
  opts.says_check = true;
  opts.says_principal = "local";
  return datalog::LintProgram(core, "local", opts);
}

}  // namespace

Result<std::string> CompileSendlog(std::string_view sendlog_program,
                                   datalog::LintReport* lint) {
  LB_ASSIGN_OR_RETURN(std::vector<SurfaceUnit> units,
                      datalog::ParseSurfaceProgram(sendlog_program));
  std::string out;
  for (const SurfaceUnit& unit : units) {
    if (!unit.context.empty() && !unit.context_is_variable) {
      return util::InvalidArgument(
          "constant 'At' contexts require a cluster "
          "(use LoadSendlogOnCluster)");
    }
    out += UnitToText(unit);
  }
  datalog::LintReport report = LintLoweredCore(out);
  if (lint != nullptr) *lint = report;
  if (report.has_errors()) return report.ToStatus();
  return out;
}

Status LoadSendlogOnCluster(net::SimCluster* cluster,
                            std::string_view sendlog_program) {
  LB_ASSIGN_OR_RETURN(std::vector<SurfaceUnit> units,
                      datalog::ParseSurfaceProgram(sendlog_program));
  // Collect each node's clauses first, then install them through one
  // batched transaction per node (a multi-unit program mutates every
  // workspace once instead of once per unit). Fixpoints are deferred to
  // the caller's next SimCluster::RunToConvergence().
  std::map<std::string, std::string> per_node;
  for (const SurfaceUnit& unit : units) {
    std::string text = UnitToText(unit);
    if (text.empty()) continue;
    if (!unit.context.empty() && !unit.context_is_variable) {
      if (cluster->node(unit.context) == nullptr) {
        return util::NotFound(util::StrCat("no cluster node named '",
                                           unit.context, "'"));
      }
      per_node[unit.context] += text;
      continue;
    }
    for (const std::string& name : cluster->node_names()) {
      per_node[name] += text;
    }
  }
  // Lint every node's lowered clauses before the first transaction
  // commits, so a bad unit rejects the whole program with zero mutation
  // on any node.
  for (const auto& [name, text] : per_node) {
    datalog::LintReport report = LintLoweredCore(text);
    if (report.has_errors()) {
      util::Status status = report.ToStatus();
      return util::Status(status.code(),
                          util::StrCat("SeNDlog program for node '", name,
                                       "': ", status.message()));
    }
  }
  for (const auto& [name, text] : per_node) {
    datalog::Transaction txn = cluster->node(name)->Begin();
    txn.AddProgram(text);
    LB_RETURN_IF_ERROR(txn.CommitNoFixpoint());
  }
  return util::OkStatus();
}

Result<std::string> IssueSendlogCredential(trust::TrustRuntime* runtime,
                                           std::string_view sendlog_program,
                                           std::vector<std::string> links,
                                           int64_t not_before,
                                           int64_t not_after) {
  LB_ASSIGN_OR_RETURN(std::string core, CompileSendlog(sendlog_program));
  return runtime->Issue(core, std::move(links), not_before, not_after);
}

}  // namespace lbtrust::sendlog
