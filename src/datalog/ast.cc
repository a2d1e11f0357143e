#include "datalog/ast.h"

#include <algorithm>
#include <utility>

namespace lbtrust::datalog {

Term Term::Variable(std::string name) {
  Term t;
  t.kind = Kind::kVariable;
  t.var = std::move(name);
  return t;
}

Term Term::Constant(Value v) {
  Term t;
  t.kind = Kind::kConstant;
  t.value = std::move(v);
  return t;
}

Term Term::Me() {
  Term t;
  t.kind = Kind::kMe;
  return t;
}

Term Term::Expr(char op, Term lhs, Term rhs) {
  Term t;
  t.kind = Kind::kExpr;
  t.op = op;
  t.lhs = std::make_shared<Term>(std::move(lhs));
  t.rhs = std::make_shared<Term>(std::move(rhs));
  return t;
}

Term Term::PartRef(std::string pred, Term key) {
  Term t;
  t.kind = Kind::kPartRef;
  t.part_pred = std::move(pred);
  t.part_key = std::make_shared<Term>(std::move(key));
  return t;
}

Term Term::StarVar(std::string name) {
  Term t;
  t.kind = Kind::kStarVar;
  t.var = std::move(name);
  return t;
}

bool TermEquals(const Term& a, const Term& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Term::Kind::kVariable:
    case Term::Kind::kStarVar:
      return a.var == b.var;
    case Term::Kind::kConstant:
      return a.value == b.value;
    case Term::Kind::kMe:
      return true;
    case Term::Kind::kExpr:
      return a.op == b.op && TermEquals(*a.lhs, *b.lhs) &&
             TermEquals(*a.rhs, *b.rhs);
    case Term::Kind::kPartRef:
      return a.part_pred == b.part_pred &&
             TermEquals(*a.part_key, *b.part_key);
  }
  return false;
}

bool AtomEquals(const Atom& a, const Atom& b) {
  if (a.predicate != b.predicate || a.meta_functor != b.meta_functor ||
      a.meta_atom != b.meta_atom || a.star != b.star) {
    return false;
  }
  if ((a.partition == nullptr) != (b.partition == nullptr)) return false;
  if (a.partition && !TermEquals(*a.partition, *b.partition)) return false;
  if (a.args.size() != b.args.size()) return false;
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!TermEquals(a.args[i], b.args[i])) return false;
  }
  return true;
}

bool RuleEquals(const Rule& a, const Rule& b) {
  if (a.heads.size() != b.heads.size() || a.body.size() != b.body.size()) {
    return false;
  }
  if (a.aggregate.has_value() != b.aggregate.has_value()) return false;
  if (a.aggregate.has_value()) {
    if (a.aggregate->fn != b.aggregate->fn ||
        a.aggregate->result_var != b.aggregate->result_var ||
        a.aggregate->input_var != b.aggregate->input_var) {
      return false;
    }
  }
  for (size_t i = 0; i < a.heads.size(); ++i) {
    if (!AtomEquals(a.heads[i], b.heads[i])) return false;
  }
  for (size_t i = 0; i < a.body.size(); ++i) {
    if (a.body[i].negated != b.body[i].negated ||
        !AtomEquals(a.body[i].atom, b.body[i].atom)) {
      return false;
    }
  }
  return true;
}

Term CloneTerm(const Term& t) {
  Term out = t;
  if (t.lhs) out.lhs = std::make_shared<Term>(CloneTerm(*t.lhs));
  if (t.rhs) out.rhs = std::make_shared<Term>(CloneTerm(*t.rhs));
  if (t.part_key) out.part_key = std::make_shared<Term>(CloneTerm(*t.part_key));
  return out;
}

Atom CloneAtom(const Atom& a) {
  Atom out = a;
  if (a.partition) {
    out.partition = std::make_shared<Term>(CloneTerm(*a.partition));
  }
  out.args.clear();
  out.args.reserve(a.args.size());
  for (const Term& t : a.args) out.args.push_back(CloneTerm(t));
  return out;
}

Rule CloneRule(const Rule& r) {
  Rule out;
  out.label = r.label;
  out.aggregate = r.aggregate;
  out.heads.reserve(r.heads.size());
  for (const Atom& h : r.heads) out.heads.push_back(CloneAtom(h));
  out.body.reserve(r.body.size());
  for (const Literal& l : r.body) {
    out.body.push_back(Literal{CloneAtom(l.atom), l.negated});
  }
  return out;
}

namespace {
void AddVar(const std::string& name, std::vector<std::string>* out) {
  if (std::find(out->begin(), out->end(), name) == out->end()) {
    out->push_back(name);
  }
}
}  // namespace

void CollectTermVars(const Term& t, std::vector<std::string>* out) {
  switch (t.kind) {
    case Term::Kind::kVariable:
    case Term::Kind::kStarVar:
      AddVar(t.var, out);
      break;
    case Term::Kind::kExpr:
      CollectTermVars(*t.lhs, out);
      CollectTermVars(*t.rhs, out);
      break;
    case Term::Kind::kPartRef:
      CollectTermVars(*t.part_key, out);
      break;
    default:
      break;  // constants (incl. quoted code) and `me` bind nothing here
  }
}

void CollectAtomVars(const Atom& a, std::vector<std::string>* out) {
  if (a.meta_atom) {
    AddVar(a.predicate, out);
    return;
  }
  if (a.meta_functor) AddVar(a.predicate, out);
  if (a.partition) CollectTermVars(*a.partition, out);
  for (const Term& t : a.args) CollectTermVars(t, out);
}

std::vector<Rule> SplitHeads(Rule rule) {
  std::vector<Rule> out;
  if (rule.heads.size() == 1) {
    out.push_back(std::move(rule));
    return out;
  }
  out.reserve(rule.heads.size());
  for (const Atom& head : rule.heads) {
    Rule single;
    single.label = rule.label;
    single.heads = {CloneAtom(head)};
    single.body = rule.body;
    single.aggregate = rule.aggregate;
    out.push_back(std::move(single));
  }
  return out;
}

bool IsGroundFactRule(const Rule& rule) {
  if (!rule.IsFact()) return false;
  std::vector<std::string> vars;
  for (const Atom& h : rule.heads) {
    CollectAtomVars(h, &vars);
    if (!vars.empty() || h.meta_atom || h.meta_functor) return false;
  }
  return true;
}

Term ResolveMeTerm(const Term& t, const std::string& principal) {
  switch (t.kind) {
    case Term::Kind::kMe:
      return Term::Constant(Value::Sym(principal));
    case Term::Kind::kExpr: {
      return Term::Expr(t.op, ResolveMeTerm(*t.lhs, principal),
                        ResolveMeTerm(*t.rhs, principal));
    }
    case Term::Kind::kPartRef:
      return Term::PartRef(t.part_pred, ResolveMeTerm(*t.part_key, principal));
    case Term::Kind::kConstant:
      if (t.value.kind() == ValueKind::kCode) {
        const CodeValue& code = t.value.AsCode();
        switch (code.what) {
          case CodeValue::What::kRule:
            return Term::Constant(Value::CodeRule(std::make_shared<const Rule>(
                ResolveMeRule(*code.rule, principal))));
          case CodeValue::What::kAtom:
            return Term::Constant(Value::CodeAtom(std::make_shared<const Atom>(
                ResolveMeAtom(*code.atom, principal))));
          case CodeValue::What::kTerm:
            return Term::Constant(Value::CodeTerm(std::make_shared<const Term>(
                ResolveMeTerm(*code.term, principal))));
          case CodeValue::What::kLiteralList:
          case CodeValue::What::kTermList:
            return t;  // list values only exist transiently during matching
        }
      }
      return t;
    default:
      return t;
  }
}

Atom ResolveMeAtom(const Atom& a, const std::string& principal) {
  Atom out = a;
  if (a.partition) {
    out.partition =
        std::make_shared<Term>(ResolveMeTerm(*a.partition, principal));
  }
  out.args.clear();
  out.args.reserve(a.args.size());
  for (const Term& t : a.args) out.args.push_back(ResolveMeTerm(t, principal));
  return out;
}

Rule ResolveMeRule(const Rule& r, const std::string& principal) {
  Rule out;
  out.label = r.label;
  out.aggregate = r.aggregate;
  out.heads.reserve(r.heads.size());
  for (const Atom& h : r.heads) out.heads.push_back(ResolveMeAtom(h, principal));
  out.body.reserve(r.body.size());
  for (const Literal& l : r.body) {
    out.body.push_back(Literal{ResolveMeAtom(l.atom, principal), l.negated});
  }
  return out;
}

}  // namespace lbtrust::datalog
