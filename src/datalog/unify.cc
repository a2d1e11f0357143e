#include "datalog/unify.h"

#include "util/strings.h"

namespace lbtrust::datalog {

int VarTable::Intern(const std::string& name) {
  const int slot = Find(name);
  if (slot >= 0) return slot;
  names_.push_back(name);
  return static_cast<int>(names_.size()) - 1;
}

int VarTable::Find(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void UndoTrail(const Trail& trail, Bindings* b) {
  for (int slot : trail) b->slots[slot] = ValueId();
}

Value ValueFromTerm(const Term& t) {
  if (t.is_constant()) return t.value;
  return Value::CodeTerm(std::make_shared<const Term>(CloneTerm(t)));
}

Term TermFromValue(const Value& v) {
  if (v.kind() == ValueKind::kCode) {
    const CodeValue& code = v.AsCode();
    if (code.what == CodeValue::What::kTerm) return CloneTerm(*code.term);
  }
  return Term::Constant(v);
}

namespace {

bool BindVar(const std::string& name, const Value& value, VarTable* vars,
             Bindings* b, Trail* trail) {
  int slot = vars->Intern(name);
  b->EnsureSize(vars->size());
  ValueId id = b->pool->Intern(value);
  if (b->IsBound(slot)) return b->slots[slot] == id;
  b->slots[slot] = id;
  trail->push_back(slot);
  return true;
}

// Matches a pattern literal sequence against a target sequence. A trailing
// starred meta-atom binds the remaining target literals.
bool UnifyLiteralList(const std::vector<Literal>& pattern,
                      const std::vector<Literal>& target, VarTable* vars,
                      Bindings* b, Trail* trail) {
  size_t pi = 0, ti = 0;
  for (; pi < pattern.size(); ++pi) {
    const Literal& pl = pattern[pi];
    if (pl.atom.star) {
      if (pi + 1 != pattern.size()) return false;  // star must be last
      std::vector<Literal> rest(target.begin() + static_cast<long>(ti),
                                target.end());
      return BindVar(StarKey(pl.atom.predicate),
                     Value::CodeLiteralList(std::move(rest)), vars, b, trail);
    }
    if (ti >= target.size()) return false;
    const Literal& tl = target[ti++];
    if (pl.negated != tl.negated) return false;
    if (!UnifyAtomPattern(pl.atom, tl.atom, vars, b, trail)) return false;
  }
  return ti == target.size();
}

std::vector<Literal> AtomsToLiterals(const std::vector<Atom>& atoms) {
  std::vector<Literal> out;
  out.reserve(atoms.size());
  for (const Atom& a : atoms) out.push_back(Literal{a, false});
  return out;
}

}  // namespace

bool UnifyTermPattern(const Term& pattern, const Term& target, VarTable* vars,
                      Bindings* b, Trail* trail) {
  switch (pattern.kind) {
    case Term::Kind::kVariable:
      // A pattern variable facing a *variable* in the target code matches
      // without binding: the target variable stands for "anything", so the
      // pattern variable stays free for later body literals to enumerate.
      // This is what makes the paper's pull rewrite (§5.1) answer a shipped
      // query pattern with concrete facts.
      if (target.is_variable()) return true;
      return BindVar(pattern.var, ValueFromTerm(target), vars, b, trail);
    case Term::Kind::kConstant:
      if (!target.is_constant()) return false;
      if (pattern.value.kind() == ValueKind::kCode &&
          target.value.kind() == ValueKind::kCode) {
        return UnifyCodeValue(pattern.value.AsCode(), target.value.AsCode(),
                              vars, b, trail);
      }
      return pattern.value == target.value;
    case Term::Kind::kMe:
      return target.kind == Term::Kind::kMe;
    case Term::Kind::kExpr:
      return target.kind == Term::Kind::kExpr && pattern.op == target.op &&
             UnifyTermPattern(*pattern.lhs, *target.lhs, vars, b, trail) &&
             UnifyTermPattern(*pattern.rhs, *target.rhs, vars, b, trail);
    case Term::Kind::kPartRef:
      return target.kind == Term::Kind::kPartRef &&
             pattern.part_pred == target.part_pred &&
             UnifyTermPattern(*pattern.part_key, *target.part_key, vars, b,
                              trail);
    case Term::Kind::kStarVar:
      return false;  // handled by argument-list matching
  }
  return false;
}

bool UnifyAtomPattern(const Atom& pattern, const Atom& target, VarTable* vars,
                      Bindings* b, Trail* trail) {
  if (pattern.meta_atom && !pattern.star) {
    // Whole-atom meta-variable binds the target atom as a code value.
    return BindVar(pattern.predicate,
                   Value::CodeAtom(std::make_shared<const Atom>(
                       CloneAtom(target))),
                   vars, b, trail);
  }
  if (target.meta_atom) return false;
  if (pattern.meta_functor) {
    if (!BindVar(pattern.predicate, Value::Sym(target.predicate), vars, b,
                 trail)) {
      return false;
    }
  } else if (pattern.predicate != target.predicate) {
    return false;
  }
  // Partition keys.
  if ((pattern.partition == nullptr) != (target.partition == nullptr)) {
    return false;
  }
  if (pattern.partition &&
      !UnifyTermPattern(*pattern.partition, *target.partition, vars, b,
                        trail)) {
    return false;
  }
  // Arguments, with trailing T*.
  size_t pi = 0;
  for (; pi < pattern.args.size(); ++pi) {
    const Term& pt = pattern.args[pi];
    if (pt.kind == Term::Kind::kStarVar) {
      if (pi + 1 != pattern.args.size()) return false;
      std::vector<Term> rest;
      for (size_t ti = pi; ti < target.args.size(); ++ti) {
        rest.push_back(CloneTerm(target.args[ti]));
      }
      return BindVar(StarKey(pt.var), Value::CodeTermList(std::move(rest)),
                     vars, b, trail);
    }
    if (pi >= target.args.size()) return false;
    if (!UnifyTermPattern(pt, target.args[pi], vars, b, trail)) return false;
  }
  return pi == target.args.size();
}

bool UnifyRulePattern(const Rule& pattern, const Rule& target, VarTable* vars,
                      Bindings* b, Trail* trail) {
  // Aggregates must agree literally (no paper pattern quantifies over them).
  if (pattern.aggregate.has_value() != target.aggregate.has_value()) {
    return false;
  }
  if (pattern.aggregate.has_value()) {
    if (pattern.aggregate->fn != target.aggregate->fn ||
        pattern.aggregate->result_var != target.aggregate->result_var ||
        pattern.aggregate->input_var != target.aggregate->input_var) {
      return false;
    }
  }
  if (!UnifyLiteralList(AtomsToLiterals(pattern.heads),
                        AtomsToLiterals(target.heads), vars, b, trail)) {
    return false;
  }
  return UnifyLiteralList(pattern.body, target.body, vars, b, trail);
}

bool UnifyCodeValue(const CodeValue& pattern, const CodeValue& target,
                    VarTable* vars, Bindings* b, Trail* trail) {
  if (pattern.what != target.what) return false;
  switch (pattern.what) {
    case CodeValue::What::kRule:
      return UnifyRulePattern(*pattern.rule, *target.rule, vars, b, trail);
    case CodeValue::What::kAtom:
      return UnifyAtomPattern(*pattern.atom, *target.atom, vars, b, trail);
    case CodeValue::What::kTerm:
      return UnifyTermPattern(*pattern.term, *target.term, vars, b, trail);
    case CodeValue::What::kLiteralList:
    case CodeValue::What::kTermList:
      // List-vs-list: require identical canonical form (no nested stars).
      return pattern.canon == target.canon;
  }
  return false;
}

bool UnifyTermValue(const Term& pattern, const Value& value, VarTable* vars,
                    Bindings* b, Trail* trail) {
  switch (pattern.kind) {
    case Term::Kind::kVariable:
      return BindVar(pattern.var, value, vars, b, trail);
    case Term::Kind::kConstant:
      if (pattern.value.kind() == ValueKind::kCode &&
          value.kind() == ValueKind::kCode) {
        return UnifyCodeValue(pattern.value.AsCode(), value.AsCode(), vars, b,
                              trail);
      }
      return pattern.value == value;
    case Term::Kind::kPartRef: {
      if (value.kind() != ValueKind::kPart) return false;
      const PartValue& part = value.AsPart();
      if (part.predicate != pattern.part_pred) return false;
      return UnifyTermValue(*pattern.part_key, *part.key, vars, b, trail);
    }
    case Term::Kind::kExpr: {
      // An arithmetic pattern can only check, not invert: evaluate if ground.
      util::Result<Value> v = EvalGroundTerm(pattern, *vars, *b);
      return v.ok() && *v == value;
    }
    case Term::Kind::kMe:
    case Term::Kind::kStarVar:
      return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Substitution (code construction)
// ---------------------------------------------------------------------------

namespace {

util::Result<Value> EvalBinary(char op, const Value& a, const Value& c) {
  if (!a.IsNumeric() || !c.IsNumeric()) {
    return util::TypeError(util::StrCat("arithmetic on non-numeric values: ",
                                        a.ToString(), " ", op, " ",
                                        c.ToString()));
  }
  if (a.kind() == ValueKind::kInt && c.kind() == ValueKind::kInt) {
    int64_t x = a.AsInt(), y = c.AsInt();
    switch (op) {
      case '+': return Value::Int(x + y);
      case '-': return Value::Int(x - y);
      case '*': return Value::Int(x * y);
      case '/':
        if (y == 0) return util::InvalidArgument("division by zero");
        return Value::Int(x / y);
    }
  }
  double x = a.NumericValue(), y = c.NumericValue();
  switch (op) {
    case '+': return Value::Double(x + y);
    case '-': return Value::Double(x - y);
    case '*': return Value::Double(x * y);
    case '/':
      if (y == 0) return util::InvalidArgument("division by zero");
      return Value::Double(x / y);
  }
  return util::Internal("unknown operator");
}

}  // namespace

Term SubstituteTerm(const Term& t, const VarTable& vars, const Bindings& b) {
  switch (t.kind) {
    case Term::Kind::kVariable: {
      int slot = vars.Find(t.var);
      if (slot >= 0 && b.IsBound(slot)) return TermFromValue(b.Get(slot));
      return t;
    }
    case Term::Kind::kExpr: {
      Term lhs = SubstituteTerm(*t.lhs, vars, b);
      Term rhs = SubstituteTerm(*t.rhs, vars, b);
      if (lhs.is_constant() && rhs.is_constant()) {
        util::Result<Value> v = EvalBinary(t.op, lhs.value, rhs.value);
        if (v.ok()) return Term::Constant(std::move(*v));
      }
      return Term::Expr(t.op, std::move(lhs), std::move(rhs));
    }
    case Term::Kind::kPartRef:
      return Term::PartRef(t.part_pred, SubstituteTerm(*t.part_key, vars, b));
    case Term::Kind::kConstant:
      if (t.value.kind() == ValueKind::kCode) {
        const CodeValue& code = t.value.AsCode();
        switch (code.what) {
          case CodeValue::What::kRule:
            return Term::Constant(Value::CodeRule(std::make_shared<const Rule>(
                SubstituteRule(*code.rule, vars, b))));
          case CodeValue::What::kAtom:
            return Term::Constant(Value::CodeAtom(std::make_shared<const Atom>(
                SubstituteAtom(*code.atom, vars, b))));
          case CodeValue::What::kTerm:
            return Term::Constant(Value::CodeTerm(std::make_shared<const Term>(
                SubstituteTerm(*code.term, vars, b))));
          default:
            return t;
        }
      }
      return t;
    case Term::Kind::kMe:
    case Term::Kind::kStarVar:
      return t;
  }
  return t;
}

Atom SubstituteAtom(const Atom& a, const VarTable& vars, const Bindings& b) {
  Atom out;
  out.predicate = a.predicate;
  out.meta_functor = a.meta_functor;
  out.meta_atom = a.meta_atom;
  out.star = a.star;
  if (a.meta_atom && !a.star) {
    int slot = vars.Find(a.predicate);
    if (slot >= 0 && b.IsBound(slot)) {
      Value bound = b.Get(slot);
      if (bound.kind() == ValueKind::kCode) {
        const CodeValue& code = bound.AsCode();
        if (code.what == CodeValue::What::kAtom) return CloneAtom(*code.atom);
        if (code.what == CodeValue::What::kRule && code.rule->IsFact() &&
            code.rule->heads.size() == 1) {
          return CloneAtom(code.rule->heads[0]);
        }
      }
    }
    return out;  // unbound meta atom survives as-is
  }
  if (a.meta_functor) {
    int slot = vars.Find(a.predicate);
    if (slot >= 0 && b.IsBound(slot)) {
      Value bound = b.Get(slot);
      if (bound.kind() == ValueKind::kSymbol) {
        out.predicate = bound.AsText();
        out.meta_functor = false;
      }
    }
  }
  if (a.partition) {
    out.partition =
        std::make_shared<Term>(SubstituteTerm(*a.partition, vars, b));
  }
  for (const Term& t : a.args) {
    if (t.kind == Term::Kind::kStarVar) {
      int slot = vars.Find(StarKey(t.var));
      if (slot >= 0 && b.IsBound(slot)) {
        Value bound = b.Get(slot);
        if (bound.kind() == ValueKind::kCode &&
            bound.AsCode().what == CodeValue::What::kTermList) {
          for (const Term& spliced : *bound.AsCode().terms) {
            out.args.push_back(CloneTerm(spliced));
          }
          continue;
        }
      }
      out.args.push_back(t);
      continue;
    }
    out.args.push_back(SubstituteTerm(t, vars, b));
  }
  return out;
}

Rule SubstituteRule(const Rule& r, const VarTable& vars, const Bindings& b) {
  Rule out;
  out.label = r.label;
  out.aggregate = r.aggregate;
  for (const Atom& h : r.heads) out.heads.push_back(SubstituteAtom(h, vars, b));
  for (const Literal& l : r.body) {
    if (l.atom.star) {
      int slot = vars.Find(StarKey(l.atom.predicate));
      if (slot >= 0 && b.IsBound(slot)) {
        Value bound = b.Get(slot);
        if (bound.kind() == ValueKind::kCode &&
            bound.AsCode().what == CodeValue::What::kLiteralList) {
          for (const Literal& spliced : *bound.AsCode().literals) {
            out.body.push_back(
                Literal{CloneAtom(spliced.atom), spliced.negated});
          }
          continue;
        }
      }
    }
    out.body.push_back(Literal{SubstituteAtom(l.atom, vars, b), l.negated});
  }
  return out;
}

bool TermHasUnboundVars(const Term& t, const VarTable& vars,
                        const Bindings& b) {
  switch (t.kind) {
    case Term::Kind::kVariable:
    case Term::Kind::kStarVar: {
      int slot = vars.Find(t.kind == Term::Kind::kStarVar ? StarKey(t.var)
                                                          : t.var);
      return slot < 0 || !b.IsBound(slot);
    }
    case Term::Kind::kExpr:
      return TermHasUnboundVars(*t.lhs, vars, b) ||
             TermHasUnboundVars(*t.rhs, vars, b);
    case Term::Kind::kPartRef:
      return TermHasUnboundVars(*t.part_key, vars, b);
    default:
      return false;
  }
}

util::Result<Value> EvalGroundTerm(const Term& t, const VarTable& vars,
                                   const Bindings& b) {
  switch (t.kind) {
    case Term::Kind::kVariable: {
      int slot = vars.Find(t.var);
      if (slot < 0 || !b.IsBound(slot)) {
        return util::UnsafeProgram(
            util::StrCat("unbound variable '", t.var, "'"));
      }
      return b.Get(slot);
    }
    case Term::Kind::kConstant:
      if (t.value.kind() == ValueKind::kCode) {
        // Substitute bound meta-variables into the fragment; remaining
        // variables legitimately belong to the constructed code.
        Term substituted = SubstituteTerm(t, vars, b);
        return substituted.value;
      }
      return t.value;
    case Term::Kind::kExpr: {
      LB_ASSIGN_OR_RETURN(Value lhs, EvalGroundTerm(*t.lhs, vars, b));
      LB_ASSIGN_OR_RETURN(Value rhs, EvalGroundTerm(*t.rhs, vars, b));
      return EvalBinary(t.op, lhs, rhs);
    }
    case Term::Kind::kPartRef: {
      LB_ASSIGN_OR_RETURN(Value key, EvalGroundTerm(*t.part_key, vars, b));
      return Value::Part(t.part_pred, std::move(key));
    }
    case Term::Kind::kMe:
      return util::Internal("unresolved 'me' at evaluation time");
    case Term::Kind::kStarVar:
      return util::UnsafeProgram("star variable outside quoted code");
  }
  return util::Internal("unknown term kind");
}

}  // namespace lbtrust::datalog
