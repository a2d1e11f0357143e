#include "datalog/workspace.h"

#include <algorithm>
#include <thread>

#include "datalog/parser.h"
#include "datalog/pretty.h"
#include "util/strings.h"

namespace lbtrust::datalog {

using util::Result;
using util::Status;

namespace {

/// Options::threads == 0 means "one per hardware thread".
unsigned ResolveThreads(unsigned configured) {
  if (configured != 0) return configured;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

Workspace::Workspace(Options options)
    : options_(std::move(options)), edb_(&pool_), store_(&pool_) {
  eval_counters_ = std::make_unique<EvalCounters>(metrics_.get());
  fixpoints_full_ =
      metrics_->GetCounter("lbtrust_fixpoints_total", "path=\"full\"");
  fixpoints_delta_ =
      metrics_->GetCounter("lbtrust_fixpoints_total", "path=\"delta\"");
  fixpoint_latency_us_ =
      metrics_->GetHistogram("lbtrust_fixpoint_latency_microseconds");
  commit_latency_us_ =
      metrics_->GetHistogram("lbtrust_commit_latency_microseconds");
  RegisterStandardBuiltins(&builtins_);
  // Meta relations maintained by the workspace itself.
  (void)EnsurePredicate("active", 1);
  (void)EnsurePredicate("owner", 2);
  (void)EnsurePredicate("pname", 2);
}

Status Workspace::EnsurePredicate(const std::string& name, size_t arity,
                                  bool partitioned) {
  if (arity > Relation::kMaxArity) {
    // Probe masks and projection hashes address columns as uint64_t bits;
    // column 64+ would shift out of range (UB). Reject here — every
    // predicate-creating path (AddFact, rule installs, declarations)
    // funnels through EnsurePredicate.
    return util::InvalidArgument(util::StrCat(
        "predicate '", name, "' has ", arity, " columns; the engine caps "
        "arity at ", Relation::kMaxArity));
  }
  bool existed = catalog_.Exists(name);
  LB_RETURN_IF_ERROR(catalog_.Declare(name, arity, partitioned));
  edb_.GetOrCreate(name, arity);
  if (!existed && !util::StartsWith(name, "$")) {
    Relation* pname = edb_.GetOrCreate("pname", 2);
    IdTuple row =
        InternTuple(&pool_, {Value::Sym(name), Value::Str(name)});
    bool inserted = pname->InsertIds(row.data());
    RecordEdbInsert("pname", row, inserted);
  }
  return util::OkStatus();
}

void Workspace::RecordEdbInsert(const std::string& pred, const IdTuple& ids,
                                bool inserted) {
  // Deltas matter only while the store reflects a completed fixpoint; bulk
  // loads before the first Fixpoint() and workspaces whose options rule
  // the delta path out skip the bookkeeping entirely.
  if (!inserted || !store_valid_ || !DeltaTrackingEnabled()) return;
  auto [it, fresh] = edb_delta_.try_emplace(pred, Relation(ids.size(), &pool_));
  (void)fresh;
  // Unique by construction: the EDB relation deduplicated the insert.
  it->second.AppendUnchecked(ids.data());
}

void Workspace::MarkRulesChanged() {
  rules_dirty_ = true;
  strat_cache_.reset();
}

Status Workspace::DeclareAtomPredicate(const Atom& atom) {
  if (atom.meta_atom || atom.meta_functor) {
    return util::UnsafeProgram(
        util::StrCat("meta pattern cannot be installed directly: ",
                     PrintAtom(atom)));
  }
  const BuiltinDef* builtin = builtins_.Find(atom.predicate);
  if (builtin != nullptr) {
    if (builtin->arity != atom.Arity()) {
      return util::TypeError(util::StrCat("builtin '", atom.predicate,
                                          "' expects ", builtin->arity,
                                          " arguments"));
    }
    return util::OkStatus();
  }
  return EnsurePredicate(atom.predicate, atom.Arity(),
                         atom.partition != nullptr);
}

void Workspace::RegisterBuiltin(const std::string& name, size_t arity,
                                std::vector<std::string> modes, BuiltinFn fn) {
  builtins_.Register(name, arity, std::move(modes), std::move(fn));
  catalog_.MarkBuiltin(name, arity);
  MarkRulesChanged();
}

Status Workspace::Load(std::string_view program) {
  return LoadClauses(options_.principal, program);
}

Status Workspace::LoadAs(const std::string& principal,
                         std::string_view program) {
  return LoadClauses(principal, program);
}

Status Workspace::RouteProgramClauses(
    const std::string& principal, std::string_view program,
    const std::function<Status(Rule)>& on_rule,
    const std::function<Status(Constraint)>& on_fail_constraint,
    const std::function<Status(Constraint)>& on_constraint) {
  // Route the whole program first (one parse, one me-resolve), so the
  // linter sees it before the first clause installs — an enforced lint
  // error rejects the program with zero workspace mutation.
  LB_ASSIGN_OR_RETURN(std::vector<RoutedClause> routed,
                      RouteProgram(program, principal));

  if (options_.lint != Options::LintMode::kOff) {
    std::vector<const Rule*> lint_rules;
    std::vector<const Constraint*> lint_constraints;
    for (const RoutedClause& item : routed) {
      if (item.kind == RoutedClause::Kind::kRule) {
        lint_rules.push_back(&item.rule);
      } else {
        lint_constraints.push_back(&item.constraint);
      }
    }
    LintOptions lint_opts;
    lint_opts.builtins = &builtins_;
    last_lint_ = LintResolved(lint_rules, lint_constraints, lint_opts);
    if (options_.lint == Options::LintMode::kEnforce &&
        last_lint_.has_errors()) {
      return last_lint_.ToStatus();
    }
  }

  for (RoutedClause& item : routed) {
    switch (item.kind) {
      case RoutedClause::Kind::kRule:
        LB_RETURN_IF_ERROR(on_rule(std::move(item.rule)));
        break;
      case RoutedClause::Kind::kFailConstraint:
        LB_RETURN_IF_ERROR(on_fail_constraint(std::move(item.constraint)));
        break;
      case RoutedClause::Kind::kConstraint:
        LB_RETURN_IF_ERROR(on_constraint(std::move(item.constraint)));
        break;
    }
  }
  return util::OkStatus();
}

Status Workspace::LoadClauses(const std::string& principal,
                              std::string_view program) {
  return RouteProgramClauses(
      principal, program,
      [&](Rule single) {
        return InstallResolved(std::move(single), principal,
                               /*hidden=*/false);
      },
      [&](Constraint c) { return CompileConstraint(std::move(c)); },
      [&](Constraint c) { return AddConstraint(c); });
}

Status Workspace::AddRule(const Rule& rule) {
  return AddRuleAs(options_.principal, rule);
}

Status Workspace::AddRuleAs(const std::string& principal, const Rule& rule) {
  for (Rule& single : SplitHeads(ResolveMeRule(rule, principal))) {
    LB_RETURN_IF_ERROR(
        InstallResolved(std::move(single), principal, /*hidden=*/false));
  }
  return util::OkStatus();
}

Status Workspace::AddRuleText(std::string_view text) {
  LB_ASSIGN_OR_RETURN(Rule rule, ParseRuleText(text));
  return AddRule(rule);
}

Status Workspace::InstallFactRule(const Rule& rule, const std::string& owner,
                                  bool from_activation,
                                  const FactSink* sink) {
  // Facts with fully ground heads go straight to the EDB; facts whose heads
  // contain quoted code keep inner variables as values.
  for (const Atom& head : rule.heads) {
    LB_RETURN_IF_ERROR(DeclareAtomPredicate(head));
    VarTable no_vars;
    Bindings no_bindings;
    Tuple tuple;
    if (head.partition) {
      LB_ASSIGN_OR_RETURN(Value v,
                          EvalGroundTerm(*head.partition, no_vars,
                                         no_bindings));
      tuple.push_back(std::move(v));
    }
    for (const Term& t : head.args) {
      LB_ASSIGN_OR_RETURN(Value v, EvalGroundTerm(t, no_vars, no_bindings));
      tuple.push_back(std::move(v));
    }
    if (from_activation && options_.track_provenance) {
      // Chain the activated fact to its active(R) witness, which in turn
      // chains to the says/export derivation that produced it.
      Derivation d;
      d.kind = Derivation::Kind::kActivated;
      d.rule_canon = PrintRule(rule);
      d.premises.emplace_back(
          "active",
          Tuple{Value::CodeRule(
              std::make_shared<const Rule>(CloneRule(rule)))});
      provenance_.Record(head.predicate, tuple, std::move(d));
    }
    if (sink != nullptr) {
      LB_RETURN_IF_ERROR((*sink)(head.predicate, std::move(tuple)));
    } else {
      LB_RETURN_IF_ERROR(AddFact(head.predicate, std::move(tuple)));
    }
  }
  (void)owner;
  return util::OkStatus();
}

Status Workspace::InstallResolved(Rule rule, const std::string& owner,
                                  bool hidden, bool from_activation) {
  // Pure ground facts are EDB inserts, not rules.
  if (IsGroundFactRule(rule)) {
    return InstallFactRule(rule, owner, from_activation);
  }

  std::string canon = PrintRule(rule);
  if (rules_by_canon_.count(canon) > 0) return util::OkStatus();

  auto installed = std::make_unique<InstalledRule>();
  LB_ASSIGN_OR_RETURN(installed->compiled, CompileRule(rule, builtins_));
  installed->id = hidden ? -(next_hidden_id_++) : next_rule_id_++;
  // Numbered before instrumenting: the id labels the rule's series, so
  // two rules with one head count apart.
  installed->compiled->id = installed->id;
  InstrumentRule(installed->compiled.get(), metrics_.get());
  installed->rule = std::move(rule);
  installed->canon = canon;
  installed->owner = owner;
  installed->hidden = hidden;

  // Declare predicates.
  LB_RETURN_IF_ERROR(DeclareAtomPredicate(installed->rule.heads[0]));
  if (builtins_.Find(installed->rule.heads[0].predicate) != nullptr) {
    return util::UnsafeProgram(
        util::StrCat("cannot derive builtin predicate '",
                     installed->rule.heads[0].predicate, "'"));
  }
  catalog_.MarkDerived(installed->rule.heads[0].predicate);
  for (const Literal& l : installed->rule.body) {
    if (l.atom.meta_atom || l.atom.meta_functor) continue;  // caught below
    LB_RETURN_IF_ERROR(DeclareAtomPredicate(l.atom));
  }

  if (!hidden) {
    // Meta bookkeeping: active(R), owner(R,U).
    Value code = Value::CodeRule(
        std::make_shared<const Rule>(CloneRule(installed->rule)));
    LB_RETURN_IF_ERROR(AddFact("active", {code}));
    LB_RETURN_IF_ERROR(AddFact("owner", {code, Value::Sym(owner)}));
    if (install_hook_) install_hook_(installed->rule, installed->id);
  }

  rules_by_canon_[canon] = installed.get();
  rules_.push_back(std::move(installed));
  MarkRulesChanged();
  return util::OkStatus();
}

Status Workspace::RemoveRule(const Rule& rule) {
  Rule resolved = ResolveMeRule(rule, options_.principal);
  std::string canon = PrintRule(resolved);
  auto it = rules_by_canon_.find(canon);
  if (it == rules_by_canon_.end()) {
    return util::NotFound(util::StrCat("no such rule: ", canon));
  }
  InstalledRule* target = it->second;
  Value code =
      Value::CodeRule(std::make_shared<const Rule>(CloneRule(target->rule)));
  (void)RemoveFact("active", {code});
  (void)RemoveFact("owner", {code, Value::Sym(target->owner)});
  if (remove_hook_ && !target->hidden) remove_hook_(target->rule);
  rules_by_canon_.erase(it);
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [&](const std::unique_ptr<InstalledRule>& r) {
                                return r.get() == target;
                              }),
               rules_.end());
  MarkRulesChanged();
  return util::OkStatus();
}

Status Workspace::AddFact(const std::string& pred, Tuple tuple) {
  if (builtins_.Find(pred) != nullptr) {
    return util::InvalidArgument(
        util::StrCat("cannot assert builtin predicate '", pred, "'"));
  }
  LB_RETURN_IF_ERROR(EnsurePredicate(pred, tuple.size()));
  Relation* rel = edb_.GetOrCreate(pred, tuple.size());
  if (rel->arity() != tuple.size()) {
    return util::TypeError(util::StrCat("fact arity mismatch for '", pred,
                                        "': got ", tuple.size(), ", expected ",
                                        rel->arity()));
  }
  // The API edge interns exactly once; the delta log and the store reuse
  // the ids without ever re-hashing the payloads.
  IdTuple ids = InternTuple(&pool_, tuple);
  bool inserted = rel->InsertIds(ids.data());
  RecordEdbInsert(pred, ids, inserted);
  return util::OkStatus();
}

Status Workspace::RemoveFact(const std::string& pred, const Tuple& tuple) {
  Relation* rel = edb_.Get(pred);
  if (rel == nullptr || !rel->Erase(tuple)) {
    return util::NotFound(util::StrCat("no such fact in '", pred, "'"));
  }
  // Deletions cannot be replayed additively; force a full rebuild.
  edb_removed_ = true;
  return util::OkStatus();
}

Status Workspace::AddFactText(std::string_view text) {
  return AddFactTextAs(options_.principal, text);
}

Status Workspace::AddFactTextAs(const std::string& principal,
                                std::string_view text) {
  LB_ASSIGN_OR_RETURN(std::vector<ParsedClause> clauses, ParseProgram(text));
  for (const ParsedClause& clause : clauses) {
    if (clause.kind != ParsedClause::Kind::kRule) {
      return util::InvalidArgument("expected facts, found a constraint");
    }
    for (const Rule& rule : clause.rules) {
      if (!rule.IsFact()) {
        return util::InvalidArgument("expected facts, found a rule");
      }
      LB_RETURN_IF_ERROR(
          InstallFactRule(ResolveMeRule(rule, principal), principal));
    }
  }
  return util::OkStatus();
}

// ---------------------------------------------------------------------------
// Constraints
// ---------------------------------------------------------------------------

namespace {

void CollectLiteralVarsDeep(const Literal& lit, std::vector<std::string>* out);

void CollectTermVarsDeepLocal(const Term& t, std::vector<std::string>* out) {
  switch (t.kind) {
    case Term::Kind::kVariable:
      out->push_back(t.var);
      return;
    case Term::Kind::kStarVar:
      out->push_back(StarKey(t.var));
      return;
    case Term::Kind::kExpr:
      CollectTermVarsDeepLocal(*t.lhs, out);
      CollectTermVarsDeepLocal(*t.rhs, out);
      return;
    case Term::Kind::kPartRef:
      CollectTermVarsDeepLocal(*t.part_key, out);
      return;
    case Term::Kind::kConstant:
      if (t.value.kind() == ValueKind::kCode) {
        const CodeValue& code = t.value.AsCode();
        if (code.what == CodeValue::What::kRule) {
          for (const Atom& h : code.rule->heads) {
            CollectLiteralVarsDeep(Literal{h, false}, out);
          }
          for (const Literal& l : code.rule->body) {
            CollectLiteralVarsDeep(l, out);
          }
        } else if (code.what == CodeValue::What::kAtom) {
          CollectLiteralVarsDeep(Literal{*code.atom, false}, out);
        } else if (code.what == CodeValue::What::kTerm) {
          CollectTermVarsDeepLocal(*code.term, out);
        }
      }
      return;
    default:
      return;
  }
}

void CollectLiteralVarsDeep(const Literal& lit, std::vector<std::string>* out) {
  const Atom& a = lit.atom;
  if (a.meta_atom) {
    out->push_back(a.star ? StarKey(a.predicate) : a.predicate);
    return;
  }
  if (a.meta_functor) out->push_back(a.predicate);
  if (a.partition) CollectTermVarsDeepLocal(*a.partition, out);
  for (const Term& t : a.args) CollectTermVarsDeepLocal(t, out);
}

std::set<std::string> VarSet(const std::vector<Literal>& lits) {
  std::vector<std::string> vars;
  for (const Literal& l : lits) CollectLiteralVarsDeep(l, &vars);
  return {vars.begin(), vars.end()};
}

}  // namespace

Status Workspace::AddConstraint(const Constraint& constraint) {
  // Declaration forms.
  if (constraint.rhs_dnf.empty()) {
    if (constraint.lhs.size() == 1 && !constraint.lhs[0].negated) {
      const Atom& atom = constraint.lhs[0].atom;
      if (atom.Arity() == 1 && builtins_.Find(atom.predicate) == nullptr) {
        LB_RETURN_IF_ERROR(catalog_.DeclareEntityType(atom.predicate));
        return EnsurePredicate(atom.predicate, 1);
      }
      return DeclareAtomPredicate(atom);
    }
    return util::InvalidArgument(
        util::StrCat("declaration must be a single atom: ",
                     constraint.display));
  }

  // Record column types for declaration-shaped constraints:
  //   p(X,Y,...) -> t1(X), t2(Y), ... (single alternative, unary RHS).
  if (constraint.lhs.size() == 1 && !constraint.lhs[0].negated &&
      constraint.rhs_dnf.size() == 1) {
    const Atom& atom = constraint.lhs[0].atom;
    std::vector<Term> cols;
    if (atom.partition) cols.push_back(*atom.partition);
    cols.insert(cols.end(), atom.args.begin(), atom.args.end());
    bool all_vars = !cols.empty();
    for (const Term& t : cols) {
      if (!t.is_variable()) all_vars = false;
    }
    if (all_vars) {
      LB_RETURN_IF_ERROR(DeclareAtomPredicate(atom));
      std::vector<std::string> types(cols.size(), "");
      bool shape_ok = true;
      for (const Literal& l : constraint.rhs_dnf[0]) {
        if (l.negated || l.atom.Arity() != 1 || l.atom.args.size() != 1 ||
            !l.atom.args[0].is_variable()) {
          shape_ok = false;
          break;
        }
        for (size_t i = 0; i < cols.size(); ++i) {
          if (cols[i].var == l.atom.args[0].var) {
            types[i] = l.atom.predicate;
          }
        }
      }
      if (shape_ok) {
        LB_RETURN_IF_ERROR(catalog_.SetArgTypes(atom.predicate, types));
      }
    }
  }

  return CompileConstraint(constraint);
}

Status Workspace::CompileConstraint(Constraint constraint) {
  auto cc = std::make_unique<CompiledConstraint>();
  cc->display = constraint.display.empty() ? PrintConstraint(constraint)
                                           : constraint.display;

  // Declare LHS predicates so queries do not fail on unknown relations.
  for (const Literal& l : constraint.lhs) {
    if (!l.atom.meta_atom && !l.atom.meta_functor) {
      LB_RETURN_IF_ERROR(DeclareAtomPredicate(l.atom));
    }
  }

  std::set<std::string> lhs_vars = VarSet(constraint.lhs);

  // For each RHS alternative, build a "check" formula whose satisfaction
  // given LHS bindings certifies the constraint; the violation query is
  // LHS ∧ ¬check_1 ∧ ... ∧ ¬check_n. Single-literal alternatives negate
  // in place (wildcard negation handles existentials); multi-literal
  // alternatives with cross-literal existential variables compile to a
  // hidden auxiliary predicate.
  //
  // A "check" contributes either one literal (possibly negated) or a
  // disjunction of negated literals (per-literal split); the latter forces
  // a DNF expansion into multiple violation queries.
  std::vector<std::vector<Literal>> fail_bodies;
  fail_bodies.push_back(constraint.lhs);

  for (size_t alt_idx = 0; alt_idx < constraint.rhs_dnf.size(); ++alt_idx) {
    const std::vector<Literal>& alt = constraint.rhs_dnf[alt_idx];
    for (const Literal& l : alt) {
      if (!l.atom.meta_atom && !l.atom.meta_functor) {
        LB_RETURN_IF_ERROR(DeclareAtomPredicate(l.atom));
      }
    }
    if (alt.size() == 1) {
      Literal negated = alt[0];
      negated.negated = !negated.negated;
      for (auto& body : fail_bodies) body.push_back(negated);
      continue;
    }
    // Does an existential variable span multiple literals?
    std::map<std::string, int> occurrence;
    for (const Literal& l : alt) {
      std::set<std::string> vars = VarSet({l});
      for (const std::string& v : vars) {
        if (lhs_vars.count(v) == 0) occurrence[v] += 1;
      }
    }
    bool cross_literal = false;
    for (const auto& [var, count] : occurrence) {
      if (count > 1) cross_literal = true;
    }
    if (!cross_literal) {
      // ¬(a ∧ b) = ¬a ∨ ¬b: split into one violation query per literal.
      std::vector<std::vector<Literal>> expanded;
      for (const Literal& l : alt) {
        Literal negated = l;
        negated.negated = !negated.negated;
        for (const auto& body : fail_bodies) {
          std::vector<Literal> next = body;
          next.push_back(negated);
          expanded.push_back(std::move(next));
        }
      }
      fail_bodies = std::move(expanded);
      continue;
    }
    // Auxiliary predicate over the variables shared with the LHS.
    std::set<std::string> alt_vars = VarSet(alt);
    std::vector<std::string> shared;
    for (const std::string& v : alt_vars) {
      if (lhs_vars.count(v)) shared.push_back(v);
    }
    std::string aux_name =
        util::StrCat("$chk", next_constraint_id_, "_", alt_idx);
    Rule aux;
    Atom head;
    head.predicate = aux_name;
    for (const std::string& v : shared) {
      head.args.push_back(Term::Variable(v));
    }
    aux.heads = {head};
    aux.body = alt;
    cc->aux_canons.push_back(PrintRule(aux));
    LB_RETURN_IF_ERROR(
        InstallResolved(std::move(aux), options_.principal, /*hidden=*/true));
    Literal check;
    check.atom = head;
    check.negated = true;
    for (auto& body : fail_bodies) body.push_back(check);
  }

  // Compile each violation query.
  for (auto& body : fail_bodies) {
    Rule fail_rule;
    Atom head;
    head.predicate = util::StrCat("$fail", next_constraint_id_);
    // Head carries the LHS variables for the diagnostic message.
    for (const std::string& v : lhs_vars) {
      head.args.push_back(Term::Variable(v));
    }
    fail_rule.heads = {head};
    fail_rule.body = body;
    auto compiled = CompileRule(fail_rule, builtins_);
    if (!compiled.ok()) {
      return util::UnsafeProgram(
          util::StrCat("constraint not enforceable (", cc->display,
                       "): ", compiled.status().message()));
    }
    cc->fail_rules.push_back(std::move(*compiled));
  }
  cc->label = constraint.label;
  cc->source = std::move(constraint);
  constraints_.push_back(std::move(cc));
  ++next_constraint_id_;
  return util::OkStatus();
}

Status Workspace::RemoveConstraintsByLabel(const std::string& label) {
  if (label.empty()) return util::InvalidArgument("empty constraint label");
  bool found = false;
  for (auto it = constraints_.begin(); it != constraints_.end();) {
    if ((*it)->label != label) {
      ++it;
      continue;
    }
    found = true;
    for (const std::string& canon : (*it)->aux_canons) {
      auto rit = rules_by_canon_.find(canon);
      if (rit != rules_by_canon_.end()) {
        InstalledRule* target = rit->second;
        rules_by_canon_.erase(rit);
        rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                                    [&](const std::unique_ptr<InstalledRule>&
                                            r) { return r.get() == target; }),
                     rules_.end());
        MarkRulesChanged();
      }
    }
    it = constraints_.erase(it);
  }
  if (!found) {
    return util::NotFound(util::StrCat("no constraint labeled '", label,
                                       "'"));
  }
  return util::OkStatus();
}

// ---------------------------------------------------------------------------
// Fixpoint
// ---------------------------------------------------------------------------

Status Workspace::PrepareStore() {
  store_.Clear();  // bumps the generation: cached Relation* self-invalidate
  for (const auto& [name, rel] : edb_.relations()) {
    Relation* dst = store_.GetOrCreate(name, rel.arity());
    for (uint32_t i : rel.Rows()) {
      if (options_.track_provenance) {
        provenance_.Record(name, rel.RowTuple(i),
                           Derivation{});  // kBase; first wins
      }
      dst->InsertIds(rel.RowIds(i));  // same pool: pure id copy
    }
  }
  return util::OkStatus();
}

Result<const Stratification*> Workspace::CurrentStratification() {
  if (strat_cache_ == nullptr) {
    std::vector<const Rule*> plain;
    plain.reserve(rules_.size());
    for (const auto& r : rules_) plain.push_back(&r->rule);
    LB_ASSIGN_OR_RETURN(Stratification strat, Stratify(plain, builtins_));
    strat_cache_ = std::make_unique<Stratification>(std::move(strat));
  }
  return strat_cache_.get();
}

Status Workspace::RunRules(
    std::optional<std::map<std::string, Relation>> seed) {
  std::vector<CompiledRule*> compiled;
  compiled.reserve(rules_.size());
  for (const auto& r : rules_) compiled.push_back(r->compiled.get());
  LB_ASSIGN_OR_RETURN(const Stratification* strat, CurrentStratification());
  // Provenance and the naive ablation rule the delta path out (see
  // DeltaTrackingEnabled), so they only ever reach full runs.
  Evaluator evaluator(&builtins_, &store_,
                      options_.track_provenance ? &provenance_ : nullptr,
                      ResolveThreads(options_.threads), &worker_pool_,
                      tracer_);
  return evaluator.Run(compiled, *strat, options_.limits, *eval_counters_,
                       std::move(seed), options_.naive_eval);
}

bool Workspace::DeltaFixpointEligible() const {
  if (!DeltaTrackingEnabled()) return false;
  if (!store_valid_ || rules_dirty_ || edb_removed_) return false;
  if (edb_delta_.empty()) return true;  // nothing changed at all
  // Affected closure: predicates whose extent may grow, seeded from the
  // dirty EDB relations and propagated through rule heads.
  std::set<std::string> affected;
  for (const auto& [pred, rel] : edb_delta_) affected.insert(pred);
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& r : rules_) {
      const CompiledRule* cr = r->compiled.get();
      if (cr == nullptr || affected.count(cr->head_pred) > 0) continue;
      for (const CompiledLiteral& lit : cr->body) {
        if (lit.kind == CompiledLiteral::Kind::kRelation &&
            affected.count(lit.pred) > 0) {
          affected.insert(cr->head_pred);
          grew = true;
          break;
        }
      }
    }
  }
  // Additive replay is exact only if no growing relation is read under
  // negation (derived tuples could become unjustified) or feeds an
  // aggregate (the old aggregate value would need retraction).
  for (const auto& r : rules_) {
    const CompiledRule* cr = r->compiled.get();
    if (cr == nullptr) continue;
    for (const CompiledLiteral& lit : cr->body) {
      if (affected.count(lit.pred) == 0) continue;
      if (lit.kind == CompiledLiteral::Kind::kNegation) return false;
      if (lit.kind == CompiledLiteral::Kind::kRelation &&
          cr->agg.has_value()) {
        return false;
      }
    }
  }
  return true;
}

Result<int> Workspace::ScanAndInstallActive() {
  const Relation* active = store_.Get("active");
  if (active == nullptr || active->arity() != 1) return 0;
  std::vector<Rule> pending;
  for (uint32_t i : active->Rows()) {
    Value v = active->ValueAt(i, 0);
    if (v.kind() != ValueKind::kCode) continue;
    const CodeValue& code = v.AsCode();
    if (code.what != CodeValue::What::kRule) continue;
    if (rules_by_canon_.count(code.canon) > 0) continue;
    // Ground facts activated via `active` land in the EDB; skip if present.
    pending.push_back(CloneRule(*code.rule));
  }
  int installed = 0;
  for (Rule& rule : pending) {
    Rule resolved = ResolveMeRule(rule, options_.principal);
    if (resolved.IsFact()) {
      // Check EDB membership to avoid infinite re-activation.
      bool all_present = true;
      for (const Atom& h : resolved.heads) {
        VarTable no_vars;
        Bindings no_bindings;
        Tuple tuple;
        bool ground = true;
        if (h.partition) {
          Result<Value> v = EvalGroundTerm(*h.partition, no_vars, no_bindings);
          if (!v.ok()) { ground = false; } else { tuple.push_back(*v); }
        }
        for (const Term& t : h.args) {
          Result<Value> v = EvalGroundTerm(t, no_vars, no_bindings);
          if (!v.ok()) { ground = false; break; }
          tuple.push_back(*v);
        }
        const Relation* rel = ground ? edb_.Get(h.predicate) : nullptr;
        if (!ground || rel == nullptr || !rel->Contains(tuple)) {
          all_present = false;
        }
      }
      if (all_present) continue;
    }
    // Count only real installs: a quoted rule that mentions `me` is
    // stored under its resolved canon, so the raw-canon skip above never
    // matches it and it comes back every round.
    const bool fact = resolved.IsFact();
    const size_t before = rules_.size();
    for (Rule& single : SplitHeads(std::move(resolved))) {
      LB_RETURN_IF_ERROR(InstallResolved(std::move(single),
                                         options_.principal,
                                         /*hidden=*/false,
                                         /*from_activation=*/true));
    }
    if (fact || rules_.size() > before) ++installed;
  }
  return installed;
}

void Workspace::CheckConstraints() {
  Evaluator evaluator(&builtins_, &store_);
  for (const auto& cc : constraints_) {
    for (const auto& fail_rule : cc->fail_rules) {
      int hits = 0;
      Status st = evaluator.EvalQuery(fail_rule.get(), [&](const Bindings& b) {
        if (hits >= 3) return;  // cap diagnostics per constraint
        std::string detail;
        for (size_t i = 0; i < fail_rule->head_cols.size(); ++i) {
          const CompiledArg& col = fail_rule->head_cols[i];
          if (col.kind != CompiledArg::Kind::kVar) continue;
          if (!b.IsBound(col.slot)) continue;
          if (!detail.empty()) detail += ", ";
          detail += util::StrCat(fail_rule->vars.name(col.slot), "=",
                                 b.Get(col.slot).ToString());
        }
        violations_.push_back(util::StrCat("constraint violated: ",
                                           cc->display,
                                           detail.empty() ? "" : " [",
                                           detail,
                                           detail.empty() ? "" : "]"));
        ++hits;
      });
      if (!st.ok()) {
        violations_.push_back(util::StrCat("constraint check failed: ",
                                           cc->display, ": ",
                                           st.ToString()));
      }
    }
  }
}

Status Workspace::Fixpoint() {
  obs::ScopedSpan span(tracer_, "fixpoint");
  const uint64_t start_us = obs::Tracer::NowMicros();
  Status status = FixpointImpl();
  fixpoint_latency_us_->Observe(obs::Tracer::NowMicros() - start_us);
  if (span.enabled()) {
    span.set_args(util::StrCat(
        "\"path\":\"", last_fixpoint_incremental_ ? "delta" : "full",
        "\",\"codegen_rounds\":", last_codegen_rounds_,
        ",\"ok\":", status.ok() ? "true" : "false"));
  }
  return status;
}

Status Workspace::FixpointImpl() {
  violations_.clear();
  last_codegen_rounds_ = 0;
  if (options_.track_provenance) provenance_.Clear();
  for (int round = 0; round < options_.max_codegen_rounds; ++round) {
    ++last_codegen_rounds_;
    if (DeltaFixpointEligible()) {
      // Delta-aware path: extend the store in place, seeding semi-naive
      // evaluation from the EDB tuples inserted since the last run. An
      // empty delta set means the store is already the fixpoint and rule
      // evaluation is skipped outright.
      last_fixpoint_incremental_ = true;
      fixpoints_delta_->Add();
      std::map<std::string, Relation> seed;
      for (auto& [pred, rel] : edb_delta_) {
        Relation* dst = store_.GetOrCreate(pred, rel.arity());
        for (uint32_t i : rel.Rows()) {
          if (dst->InsertIds(rel.RowIds(i))) {
            auto [it, fresh] =
                seed.try_emplace(pred, Relation(rel.arity(), &pool_));
            (void)fresh;
            it->second.AppendUnchecked(rel.RowIds(i));
          }
        }
      }
      edb_delta_.clear();
      if (!seed.empty()) {
        store_valid_ = false;  // invalid while mid-extension
        LB_RETURN_IF_ERROR(RunRules(std::move(seed)));
        store_valid_ = true;
      }
    } else {
      // Full rebuild: clear the store and recompute from the EDB.
      last_fixpoint_incremental_ = false;
      fixpoints_full_->Add();
      store_valid_ = false;
      edb_delta_.clear();
      LB_RETURN_IF_ERROR(PrepareStore());
      LB_RETURN_IF_ERROR(RunRules());
      store_valid_ = true;
      rules_dirty_ = false;
      edb_removed_ = false;
    }
    LB_ASSIGN_OR_RETURN(int installed, ScanAndInstallActive());
    if (installed == 0) {
      CheckConstraints();
      if (!violations_.empty()) {
        return util::ConstraintViolation(util::StrCat(
            violations_.size(), " violation(s); first: ", violations_[0]));
      }
      return util::OkStatus();
    }
  }
  return util::Internal("codegen did not reach quiescence (cycle in "
                        "meta-rules?)");
}

std::string Workspace::DumpMetrics() {
  // Refresh point-in-time gauges from the visible store before rendering;
  // counters and histograms are already live.
  for (const auto& [name, rel] : store_.relations()) {
    metrics_
        ->GetGauge("lbtrust_relation_rows",
                   util::StrCat("relation=\"", obs::LabelEscape(name), "\""))
        ->Set(static_cast<int64_t>(rel.size()));
  }
  return metrics_->RenderText();
}

LintReport Workspace::LintRules() const {
  // Lint the visible rule set; hidden constraint aux rules are
  // synthesized shapes the user never wrote, so they are excluded from
  // per-rule checks (their source constraints participate instead).
  std::vector<const Rule*> rules;
  std::vector<int> installed_pos;
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i]->hidden) continue;
    rules.push_back(&rules_[i]->rule);
    installed_pos.push_back(static_cast<int>(i));
  }
  std::vector<const Constraint*> constraints;
  constraints.reserve(constraints_.size());
  for (const auto& c : constraints_) constraints.push_back(&c->source);
  LintOptions opts;
  opts.builtins = &builtins_;
  LintReport report = LintResolved(rules, constraints, opts);
  // Re-anchor rule indexes onto the installed-rule list so they line up
  // with EXPLAIN's rule ids, then add the measured join-order smells.
  for (Diagnostic& d : report.diagnostics) {
    if (d.rule_index >= 0 &&
        d.rule_index < static_cast<int>(installed_pos.size())) {
      d.rule_index = installed_pos[static_cast<size_t>(d.rule_index)];
    }
  }
  auto rows = [this](const std::string& pred) -> size_t {
    const auto& rels = store_.relations();
    auto it = rels.find(pred);
    return it == rels.end() ? kUnknownRows : it->second.size();
  };
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i]->hidden || rules_[i]->compiled == nullptr) continue;
    LintJoinOrder(*rules_[i]->compiled, static_cast<int>(i), rows,
                  &report.diagnostics);
  }
  return report;
}

std::string Workspace::ExplainRules(ExplainFormat format) {
  std::vector<const CompiledRule*> compiled;
  std::vector<std::vector<Diagnostic>> diagnostics;
  compiled.reserve(rules_.size());
  LintReport lint = LintRules();
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i]->compiled == nullptr) continue;
    compiled.push_back(rules_[i]->compiled.get());
    diagnostics.emplace_back();
    for (const Diagnostic& d : lint.diagnostics) {
      if (d.rule_index == static_cast<int>(i)) {
        diagnostics.back().push_back(d);
      }
    }
  }
  return ExplainCompiledRules(compiled, format, &diagnostics);
}

std::vector<std::pair<std::string, size_t>> Workspace::RelationRowCounts()
    const {
  std::vector<std::pair<std::string, size_t>> out;
  out.reserve(store_.relations().size());
  for (const auto& [name, rel] : store_.relations()) {
    out.emplace_back(name, rel.size());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Result<PreparedQuery> Workspace::Prepare(std::string_view atom_text) {
  LB_ASSIGN_OR_RETURN(Atom atom, ParseAtomText(atom_text));
  Atom resolved = ResolveMeAtom(atom, options_.principal);
  if (builtins_.Find(resolved.predicate) != nullptr) {
    return util::InvalidArgument("cannot query a builtin predicate");
  }
  Rule query;
  query.heads = {resolved};
  query.body = {Literal{resolved, false}};
  LB_ASSIGN_OR_RETURN(std::unique_ptr<CompiledRule> compiled,
                      CompileRule(query, builtins_));
  // PreparedQuery::Explain reads these handles; resolve them once here, as
  // for an installed rule.
  InstrumentRule(compiled.get(), metrics_.get());
  return PreparedQuery(this, std::string(atom_text), std::move(compiled));
}

size_t PreparedQuery::num_columns() const {
  return compiled_->head_cols.size();
}

std::string PreparedQuery::Explain(ExplainFormat format) const {
  return ExplainCompiledRule(*compiled_, format);
}

Status PreparedQuery::ForEach(const std::function<bool(const Tuple&)>& cb) {
  CompiledRule* rule = compiled_.get();
  Evaluator evaluator(&workspace_->builtins_, &workspace_->store_);
  Tuple row;
  return evaluator.EvalQueryUntil(rule, [&](const Bindings& b) {
    row.clear();
    row.reserve(rule->head_cols.size());
    for (const CompiledArg& col : rule->head_cols) {
      Result<Value> gv = EvalGroundTerm(col.term, rule->vars, b);
      if (!gv.ok()) return true;  // ungroundable output column: skip row
      row.push_back(std::move(*gv));
    }
    return cb(row);
  });
}

Result<std::vector<Tuple>> PreparedQuery::Run() {
  std::vector<Tuple> out;
  LB_RETURN_IF_ERROR(ForEach([&](const Tuple& t) {
    out.push_back(t);
    return true;
  }));
  return out;
}

Result<size_t> PreparedQuery::Count() {
  size_t n = 0;
  LB_RETURN_IF_ERROR(ForEach([&](const Tuple&) {
    ++n;
    return true;
  }));
  return n;
}

Result<bool> PreparedQuery::Exists() {
  // Dedicated path: no output-tuple materialization. The groundability
  // check mirrors ForEach (a solution whose output columns cannot ground
  // is not a result row), but discards the values.
  CompiledRule* rule = compiled_.get();
  Evaluator evaluator(&workspace_->builtins_, &workspace_->store_);
  bool found = false;
  LB_RETURN_IF_ERROR(evaluator.EvalQueryUntil(rule, [&](const Bindings& b) {
    for (const CompiledArg& col : rule->head_cols) {
      if (!EvalGroundTerm(col.term, rule->vars, b).ok()) return true;
    }
    found = true;
    return false;  // stop at the first match
  }));
  return found;
}

Result<std::vector<Tuple>> Workspace::Query(std::string_view atom_text) {
  LB_ASSIGN_OR_RETURN(PreparedQuery q, Prepare(atom_text));
  return q.Run();
}

Result<size_t> Workspace::Count(std::string_view atom_text) {
  LB_ASSIGN_OR_RETURN(PreparedQuery q, Prepare(atom_text));
  return q.Count();
}

Result<std::string> Workspace::Explain(std::string_view atom_text) {
  if (!options_.track_provenance) {
    return util::FailedPrecondition(
        "provenance tracking is disabled (Options::track_provenance)");
  }
  LB_ASSIGN_OR_RETURN(Atom atom, ParseAtomText(atom_text));
  Atom resolved = ResolveMeAtom(atom, options_.principal);
  LB_ASSIGN_OR_RETURN(std::vector<Tuple> rows, Query(atom_text));
  if (rows.empty()) {
    return util::NotFound(util::StrCat("no tuples match ", atom_text));
  }
  std::string out;
  for (const Tuple& t : rows) {
    out += provenance_.Explain(resolved.predicate, t);
  }
  return out;
}

const Relation* Workspace::GetRelation(const std::string& name) const {
  return store_.Get(name);
}

std::vector<const Rule*> Workspace::rules() const {
  std::vector<const Rule*> out;
  for (const auto& r : rules_) {
    if (!r->hidden) out.push_back(&r->rule);
  }
  return out;
}

bool Workspace::HasRule(const std::string& canon) const {
  return rules_by_canon_.count(canon) > 0;
}

// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

Transaction& Transaction::AddFact(std::string pred, Tuple tuple) {
  if (done_) return *this;
  Op op;
  op.kind = Op::Kind::kAddFact;
  op.pred = std::move(pred);
  op.tuple = std::move(tuple);
  ops_.push_back(std::move(op));
  return *this;
}

Transaction& Transaction::RemoveFact(std::string pred, Tuple tuple) {
  if (done_) return *this;
  Op op;
  op.kind = Op::Kind::kRemoveFact;
  op.pred = std::move(pred);
  op.tuple = std::move(tuple);
  ops_.push_back(std::move(op));
  return *this;
}

Transaction& Transaction::AddRule(const Rule& rule) {
  if (done_) return *this;
  Op op;
  op.kind = Op::Kind::kAddRule;
  op.rule = CloneRule(rule);
  ops_.push_back(std::move(op));
  return *this;
}

Transaction& Transaction::RemoveRule(const Rule& rule) {
  if (done_) return *this;
  Op op;
  op.kind = Op::Kind::kRemoveRule;
  op.rule = CloneRule(rule);
  ops_.push_back(std::move(op));
  return *this;
}

Transaction& Transaction::AddRuleText(std::string_view text) {
  if (done_) return *this;
  Op op;
  op.kind = Op::Kind::kAddRuleText;
  op.text = std::string(text);
  ops_.push_back(std::move(op));
  return *this;
}

Transaction& Transaction::AddFactText(std::string_view text) {
  return AddFactTextAs(std::string(), text);
}

Transaction& Transaction::AddFactTextAs(std::string principal,
                                        std::string_view text) {
  if (done_) return *this;
  Op op;
  op.kind = Op::Kind::kAddFactText;
  op.text = std::string(text);
  op.principal = std::move(principal);
  ops_.push_back(std::move(op));
  return *this;
}

Transaction& Transaction::AddProgram(std::string_view text) {
  return AddProgramAs(std::string(), text);
}

Transaction& Transaction::AddProgramAs(std::string principal,
                                       std::string_view text) {
  if (done_) return *this;
  Op op;
  op.kind = Op::Kind::kAddProgram;
  op.text = std::string(text);
  op.principal = std::move(principal);
  ops_.push_back(std::move(op));
  return *this;
}

Transaction& Transaction::Say(std::string destination,
                              std::string_view rule_text) {
  if (done_) return *this;
  Op op;
  op.kind = Op::Kind::kSay;
  op.pred = std::move(destination);
  op.text = std::string(rule_text);
  ops_.push_back(std::move(op));
  return *this;
}

void Transaction::Abort() {
  ops_.clear();
  done_ = true;
}

Status Transaction::Commit() {
  const uint64_t start_us = obs::Tracer::NowMicros();
  Status status = Apply();
  if (status.ok()) status = workspace_->Fixpoint();
  workspace_->commit_latency_us_->Observe(obs::Tracer::NowMicros() -
                                          start_us);
  return status;
}

Status Transaction::CommitNoFixpoint() { return Apply(); }

Status Transaction::Apply() {
  if (done_) {
    return util::FailedPrecondition(
        "transaction already committed or aborted");
  }
  done_ = true;
  Workspace* ws = workspace_;
  std::vector<std::function<void()>> undo;

  // Each primitive pushes its inverse; on failure the applied prefix is
  // unwound in reverse. Predicate declarations and constraint installs are
  // not inverted (idempotent metadata; see the class comment).
  auto apply_add_fact = [&](const std::string& pred,
                            const Tuple& tuple) -> Status {
    const Relation* rel = ws->edb_.Get(pred);
    bool existed = rel != nullptr && rel->Contains(tuple);
    LB_RETURN_IF_ERROR(ws->AddFact(pred, Tuple(tuple)));
    if (!existed) {
      undo.push_back(
          [ws, pred, tuple]() { (void)ws->RemoveFact(pred, tuple); });
    }
    return util::OkStatus();
  };

  auto apply_remove_fact = [&](const std::string& pred,
                               const Tuple& tuple) -> Status {
    LB_RETURN_IF_ERROR(ws->RemoveFact(pred, tuple));
    undo.push_back(
        [ws, pred, tuple]() { (void)ws->AddFact(pred, Tuple(tuple)); });
    return util::OkStatus();
  };

  // Ground-fact clause: InstallFactRule with an undo-recording sink in
  // place of the plain AddFact.
  Workspace::FactSink fact_sink = [&](const std::string& pred,
                                      Tuple tuple) -> Status {
    return apply_add_fact(pred, tuple);
  };
  auto apply_fact_rule = [&](const Rule& resolved) -> Status {
    return ws->InstallFactRule(resolved, ws->options_.principal,
                               /*from_activation=*/false, &fact_sink);
  };

  // One resolved single-head rule clause: route ground facts to the EDB
  // and the rest through InstallResolved (mirrors InstallResolved's own
  // routing, with undo).
  auto apply_single_rule = [&](Rule single,
                               const std::string& principal) -> Status {
    if (IsGroundFactRule(single)) return apply_fact_rule(single);
    std::string canon = PrintRule(single);
    bool existed = ws->HasRule(canon);
    Rule for_undo = CloneRule(single);
    LB_RETURN_IF_ERROR(
        ws->InstallResolved(std::move(single), principal, /*hidden=*/false));
    if (!existed) {
      undo.push_back([ws, for_undo]() { (void)ws->RemoveRule(for_undo); });
    }
    return util::OkStatus();
  };

  // Rule clause: me-resolve and split heads (as Workspace::AddRuleAs).
  auto apply_rule = [&](const Rule& rule,
                        const std::string& principal) -> Status {
    for (Rule& single : SplitHeads(ResolveMeRule(rule, principal))) {
      LB_RETURN_IF_ERROR(apply_single_rule(std::move(single), principal));
    }
    return util::OkStatus();
  };

  auto apply_remove_rule = [&](const Rule& rule) -> Status {
    Rule resolved = ResolveMeRule(rule, ws->options_.principal);
    auto it = ws->rules_by_canon_.find(PrintRule(resolved));
    if (it == ws->rules_by_canon_.end()) {
      return util::NotFound(
          util::StrCat("no such rule: ", PrintRule(resolved)));
    }
    Rule saved = CloneRule(it->second->rule);
    std::string owner = it->second->owner;
    LB_RETURN_IF_ERROR(ws->RemoveRule(resolved));
    undo.push_back([ws, saved, owner]() {
      (void)ws->InstallResolved(CloneRule(saved), owner, /*hidden=*/false);
    });
    return util::OkStatus();
  };

  auto apply_fact_text = [&](const std::string& text,
                             const std::string& principal) -> Status {
    LB_ASSIGN_OR_RETURN(std::vector<ParsedClause> clauses,
                        ParseProgram(text));
    for (const ParsedClause& clause : clauses) {
      if (clause.kind != ParsedClause::Kind::kRule) {
        return util::InvalidArgument("expected facts, found a constraint");
      }
      for (const Rule& rule : clause.rules) {
        if (!rule.IsFact()) {
          return util::InvalidArgument("expected facts, found a rule");
        }
        LB_RETURN_IF_ERROR(apply_fact_rule(ResolveMeRule(rule, principal)));
      }
    }
    return util::OkStatus();
  };

  // Program clause list: same routing as Workspace::Load, with the
  // transaction's undo-aware rule install (constraints are not undone;
  // see the class comment).
  auto apply_program = [&](const std::string& text,
                           const std::string& principal) -> Status {
    return ws->RouteProgramClauses(
        principal, text,
        [&](Rule single) {
          return apply_single_rule(std::move(single), principal);
        },
        [&](Constraint c) { return ws->CompileConstraint(std::move(c)); },
        [&](Constraint c) { return ws->AddConstraint(c); });
  };

  auto apply_say = [&](const std::string& destination,
                       const std::string& rule_text) -> Status {
    LB_ASSIGN_OR_RETURN(Rule rule, ParseRuleText(rule_text));
    Value code = Value::CodeRule(std::make_shared<const Rule>(std::move(rule)));
    return apply_add_fact("says",
                          {Value::Sym(ws->options_.principal),
                           Value::Sym(destination), std::move(code)});
  };

  for (const Op& op : ops_) {
    const std::string& principal =
        op.principal.empty() ? ws->options_.principal : op.principal;
    Status st;
    switch (op.kind) {
      case Op::Kind::kAddFact:
        st = apply_add_fact(op.pred, op.tuple);
        break;
      case Op::Kind::kRemoveFact:
        st = apply_remove_fact(op.pred, op.tuple);
        break;
      case Op::Kind::kAddRule:
        st = apply_rule(op.rule, principal);
        break;
      case Op::Kind::kRemoveRule:
        st = apply_remove_rule(op.rule);
        break;
      case Op::Kind::kAddRuleText: {
        auto parsed = ParseRuleText(op.text);
        st = parsed.ok() ? apply_rule(*parsed, principal) : parsed.status();
        break;
      }
      case Op::Kind::kAddFactText:
        st = apply_fact_text(op.text, principal);
        break;
      case Op::Kind::kAddProgram:
        st = apply_program(op.text, principal);
        break;
      case Op::Kind::kSay:
        st = apply_say(op.pred, op.text);
        break;
    }
    if (!st.ok()) {
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) (*it)();
      ops_.clear();
      return st;
    }
  }
  ops_.clear();
  return util::OkStatus();
}

}  // namespace lbtrust::datalog
