#include "datalog/plan.h"

#include <algorithm>
#include <utility>

#include "datalog/analysis.h"
#include "datalog/pretty.h"
#include "datalog/relation.h"
#include "util/strings.h"

namespace lbtrust::datalog {

namespace {

// Interns every variable in a term, descending into quoted code (pattern
// variables share the enclosing rule's scope, §3.3), in occurrence order.
void InternTerm(const Term& t, VarTable* vars, std::vector<int>* out);

void InternAtom(const Atom& a, VarTable* vars, std::vector<int>* out) {
  if (a.meta_atom) {
    out->push_back(vars->Intern(a.star ? StarKey(a.predicate) : a.predicate));
    return;
  }
  if (a.meta_functor) out->push_back(vars->Intern(a.predicate));
  if (a.partition) InternTerm(*a.partition, vars, out);
  for (const Term& t : a.args) InternTerm(t, vars, out);
}

void InternTerm(const Term& t, VarTable* vars, std::vector<int>* out) {
  switch (t.kind) {
    case Term::Kind::kVariable:
      out->push_back(vars->Intern(t.var));
      return;
    case Term::Kind::kStarVar:
      out->push_back(vars->Intern(StarKey(t.var)));
      return;
    case Term::Kind::kExpr:
      InternTerm(*t.lhs, vars, out);
      InternTerm(*t.rhs, vars, out);
      return;
    case Term::Kind::kPartRef:
      InternTerm(*t.part_key, vars, out);
      return;
    case Term::Kind::kConstant:
      if (t.value.kind() == ValueKind::kCode) {
        const CodeValue& code = t.value.AsCode();
        switch (code.what) {
          case CodeValue::What::kRule: {
            const Rule& r = *code.rule;
            for (const Atom& h : r.heads) InternAtom(h, vars, out);
            for (const Literal& l : r.body) InternAtom(l.atom, vars, out);
            if (r.aggregate.has_value()) {
              out->push_back(vars->Intern(r.aggregate->result_var));
              out->push_back(vars->Intern(r.aggregate->input_var));
            }
            break;
          }
          case CodeValue::What::kAtom:
            InternAtom(*code.atom, vars, out);
            break;
          case CodeValue::What::kTerm:
            InternTerm(*code.term, vars, out);
            break;
          default:
            break;
        }
      }
      return;
    case Term::Kind::kMe:
      return;
  }
}

PlanColumn PlanCol(const Term& t, VarTable* vars) {
  PlanColumn col;
  InternTerm(t, vars, &col.term_slots);
  if (col.term_slots.empty()) return col;  // kConst
  if (t.is_variable()) {
    col.kind = PlanColumn::Kind::kVar;
    col.slot = col.term_slots[0];
  } else {
    // Arithmetic can only check; patterns (quoted code, partition refs)
    // bind their variables on match.
    col.kind = t.kind == Term::Kind::kExpr ? PlanColumn::Kind::kExpr
                                           : PlanColumn::Kind::kPattern;
  }
  return col;
}

std::vector<PlanColumn> PlanCols(const Atom& atom, VarTable* vars) {
  std::vector<PlanColumn> cols;
  cols.reserve(atom.Arity());
  if (atom.partition) cols.push_back(PlanCol(*atom.partition, vars));
  for (const Term& t : atom.args) cols.push_back(PlanCol(t, vars));
  return cols;
}

bool Ground(const PlanColumn& col, const std::vector<char>& bound) {
  for (int slot : col.term_slots) {
    if (!bound[static_cast<size_t>(slot)]) return false;
  }
  return true;
}

// How eagerly the greedy walk runs `lit` next; negative when it cannot run.
int Score(const PlanLiteral& lit, const std::vector<char>& bound) {
  switch (lit.kind) {
    case PlanLiteral::Kind::kEquality: {
      const bool g0 = Ground(lit.cols[0], bound);
      const bool g1 = Ground(lit.cols[1], bound);
      // Pattern sides can consume a ground other side; expressions cannot
      // be inverted.
      if (g0 && g1) return 3000;
      if (g0 && lit.cols[1].kind != PlanColumn::Kind::kExpr) return 2900;
      if (g1 && lit.cols[0].kind != PlanColumn::Kind::kExpr) return 2900;
      return -1;
    }
    case PlanLiteral::Kind::kBuiltin: {
      if (lit.negated) {
        for (const PlanColumn& c : lit.cols) {
          if (!Ground(c, bound)) return -1;
        }
        return 2500;
      }
      for (const std::string& mode : lit.builtin->modes) {
        bool ok = true;
        for (size_t i = 0; i < mode.size() && ok; ++i) {
          ok = mode[i] != 'b' || Ground(lit.cols[i], bound);
        }
        if (ok) return 2500;
      }
      return -1;
    }
    case PlanLiteral::Kind::kNegation:
      for (int slot : lit.shared_slots) {
        if (!bound[static_cast<size_t>(slot)]) return -1;
      }
      return 2400;
    case PlanLiteral::Kind::kRelation: {
      int bound_cols = 0;
      for (const PlanColumn& c : lit.cols) {
        const bool ground = Ground(c, bound);
        if (c.kind == PlanColumn::Kind::kExpr && !ground) {
          return -1;  // cannot match through arithmetic
        }
        if (ground) ++bound_cols;
      }
      return 1000 + 50 * bound_cols;
    }
  }
  return -1;
}

// Marks the slots `lit` guarantees to bind when it succeeds.
void Bind(const PlanLiteral& lit, std::vector<char>* bound) {
  if (lit.kind == PlanLiteral::Kind::kNegation) return;
  for (const PlanColumn& c : lit.cols) {
    // Relation columns bind unless they are check-only arithmetic.
    if (lit.kind == PlanLiteral::Kind::kRelation &&
        c.kind == PlanColumn::Kind::kExpr) {
      continue;
    }
    for (int slot : c.term_slots) (*bound)[static_cast<size_t>(slot)] = 1;
  }
}

uint64_t GroundMask(const PlanLiteral& lit, const std::vector<char>& bound) {
  uint64_t mask = 0;
  for (size_t c = 0; c < lit.cols.size(); ++c) {
    if (Ground(lit.cols[c], bound)) mask |= uint64_t{1} << c;
  }
  return mask;
}

// The greedy walk: after `forced_first` (when >= 0), repeatedly runs the
// best-scoring literal that can run, ties to the lowest body index.
// Returns false when it stalls; `out` and `bound` then hold the state at
// the stall.
bool Walk(const std::vector<PlanLiteral>& body, size_t num_slots,
          int forced_first, PlannedOrder* out, std::vector<char>* bound) {
  bound->assign(num_slots, 0);
  out->order.reserve(body.size());
  out->masks.reserve(body.size());
  std::vector<char> done(body.size(), 0);
  auto take = [&](int i) {
    const PlanLiteral& lit = body[static_cast<size_t>(i)];
    out->order.push_back(i);
    out->masks.push_back(GroundMask(lit, *bound));
    done[static_cast<size_t>(i)] = 1;
    Bind(lit, bound);
  };
  if (forced_first >= 0) take(forced_first);
  while (out->order.size() < body.size()) {
    int best = -1;
    int best_score = -1;
    for (size_t i = 0; i < body.size(); ++i) {
      if (done[i]) continue;
      const int score = Score(body[i], *bound);
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return false;
    take(best);
  }
  return true;
}

// Fills every negation's shared_slots: a slot is shared when some site
// other than the negation itself (the head or another body literal) uses it.
void FindSharedSlots(RulePlan* plan) {
  const size_t n = plan->vars.size();
  std::vector<int> sites(n, 0);
  std::vector<size_t> last_site(n, ~size_t{0});
  auto count = [&](const std::vector<PlanColumn>& cols, size_t site) {
    for (const PlanColumn& c : cols) {
      for (int slot : c.term_slots) {
        const size_t s = static_cast<size_t>(slot);
        if (last_site[s] != site) {
          last_site[s] = site;
          ++sites[s];
        }
      }
    }
  };
  count(plan->head, plan->body.size());
  for (size_t b = 0; b < plan->body.size(); ++b) count(plan->body[b].cols, b);
  for (PlanLiteral& lit : plan->body) {
    if (lit.kind != PlanLiteral::Kind::kNegation) continue;
    for (const PlanColumn& c : lit.cols) {
      for (int slot : c.term_slots) {
        if (sites[static_cast<size_t>(slot)] > 1 &&
            std::find(lit.shared_slots.begin(), lit.shared_slots.end(),
                      slot) == lit.shared_slots.end()) {
          lit.shared_slots.push_back(slot);
        }
      }
    }
  }
}

void Refuse(RulePlan* plan, RulePlan::Verdict verdict, util::Status status,
            int bad_literal = -1) {
  plan->verdict = verdict;
  plan->status = std::move(status);
  plan->bad_literal = bad_literal;
}

}  // namespace

PlannedOrder RulePlan::DeltaOrder(int pos) const {
  PlannedOrder out;
  std::vector<char> scratch;
  (void)Walk(body, vars.size(), pos, &out, &scratch);
  return out;
}

RulePlan PlanRule(const Rule& rule, const BuiltinRegistry& builtins) {
  RulePlan plan;
  util::Status installable = ValidateInstallableRule(rule);
  if (!installable.ok()) {
    Refuse(&plan, RulePlan::Verdict::kNotInstallable, std::move(installable));
    return plan;
  }
  auto column_cap = [] {
    return util::TypeError("predicates are limited to 64 columns");
  };
  const Atom& head = rule.heads[0];
  plan.head = PlanCols(head, &plan.vars);
  if (head.Arity() > Relation::kMaxArity) {
    Refuse(&plan, RulePlan::Verdict::kColumnCap, column_cap());
    return plan;
  }

  plan.body.reserve(rule.body.size());
  for (size_t b = 0; b < rule.body.size(); ++b) {
    const Literal& lit = rule.body[b];
    const int pos = static_cast<int>(b);
    if (lit.atom.Arity() > Relation::kMaxArity) {
      Refuse(&plan, RulePlan::Verdict::kColumnCap, column_cap(), pos);
      return plan;
    }
    PlanLiteral pl;
    pl.negated = lit.negated;
    pl.cols = PlanCols(lit.atom, &plan.vars);
    const std::string& pred = lit.atom.predicate;
    if (pred == "=" && !lit.negated) {
      pl.kind = PlanLiteral::Kind::kEquality;
    } else if (const BuiltinDef* def = builtins.Find(pred)) {
      pl.kind = PlanLiteral::Kind::kBuiltin;
      pl.builtin = def;
      if (pred == "=") {  // negated equality behaves as '!='
        pl.builtin = builtins.Find("!=");
        pl.negated = false;
      }
      if (pl.cols.size() != pl.builtin->arity) {
        Refuse(&plan, RulePlan::Verdict::kBuiltinArity,
               util::TypeError(util::StrCat("builtin '", pred, "' expects ",
                                            pl.builtin->arity, " arguments")),
               pos);
        return plan;
      }
    } else if (lit.negated) {
      pl.kind = PlanLiteral::Kind::kNegation;
    } else {
      pl.kind = PlanLiteral::Kind::kRelation;
      plan.relation_positions.push_back(pos);
    }
    plan.body.push_back(std::move(pl));
  }
  FindSharedSlots(&plan);

  if (!Walk(plan.body, plan.vars.size(), -1, &plan.full, &plan.bound)) {
    Refuse(&plan, RulePlan::Verdict::kStuck,
           util::UnsafeProgram(util::StrCat(
               "no safe evaluation order for rule: ", PrintRule(rule))));
    return plan;
  }
  // Range restriction: the aggregate input and every head variable outside
  // quoted code must be bound by the body; the aggregate result must not.
  std::string why;  // CompileRule reports the first failure
  auto fail = [&why](std::string what) {
    if (why.empty()) why = std::move(what);
  };
  if (rule.aggregate.has_value()) {
    const Aggregate& agg = *rule.aggregate;
    plan.agg_input_slot = plan.vars.Find(agg.input_var);
    if (!plan.IsBound(plan.agg_input_slot)) {
      plan.agg_input_unbound = true;
      fail(util::StrCat("aggregate input variable '", agg.input_var,
                        "' is not bound by the body: "));
    }
    plan.agg_result_slot = plan.vars.Find(agg.result_var);
    if (plan.IsBound(plan.agg_result_slot)) {
      plan.agg_result_bound = true;
      fail(util::StrCat("aggregate result variable '", agg.result_var,
                        "' must not be bound by the body: "));
    }
    if (plan.agg_result_slot < 0) {
      plan.agg_result_slot = plan.vars.Intern(agg.result_var);
    }
  }
  std::vector<std::string> head_vars;
  CollectAtomVars(head, &head_vars);
  for (std::string& name : head_vars) {
    if (rule.aggregate.has_value() && name == rule.aggregate->result_var) {
      continue;
    }
    if (plan.IsBound(plan.vars.Find(name))) continue;
    fail(util::StrCat("head variable '", name, "' is not bound by the body: "));
    plan.unbound_head_vars.push_back(std::move(name));
  }
  if (!why.empty()) {
    Refuse(&plan, RulePlan::Verdict::kUnsafeHead,
           util::UnsafeProgram(why + PrintRule(rule)));
  }
  return plan;
}

}  // namespace lbtrust::datalog
