#include "datalog/lint.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <utility>

#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "datalog/plan.h"
#include "datalog/pretty.h"
#include "obs/metrics.h"
#include "util/strings.h"

namespace lbtrust::datalog {

namespace {

const BuiltinRegistry& StandardBuiltins() {
  static const BuiltinRegistry* reg = [] {
    auto* r = new BuiltinRegistry;
    RegisterStandardBuiltins(r);
    return r;
  }();
  return *reg;
}

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNil: return "nil";
    case ValueKind::kBool: return "bool";
    case ValueKind::kInt: return "int";
    case ValueKind::kDouble: return "float";
    case ValueKind::kString: return "string";
    case ValueKind::kSymbol: return "symbol";
    case ValueKind::kCode: return "code";
    case ValueKind::kPart: return "partition";
  }
  return "?";
}

std::string JoinVars(const std::vector<int>& slots, const VarTable& vars) {
  std::string out;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i != 0) out += ", ";
    out += util::StrCat("'", vars.name(slots[i]), "'");
  }
  return out;
}

/// Appends the column's unbound slots to `out`, skipping ones already there.
void AppendUnbound(const PlanColumn& col, const RulePlan& plan,
                   std::vector<int>* out) {
  for (int slot : col.term_slots) {
    if (!plan.IsBound(slot) &&
        std::find(out->begin(), out->end(), slot) == out->end()) {
      out->push_back(slot);
    }
  }
}

// --- The analyzer ---------------------------------------------------------

constexpr size_t kNoArity = ~static_cast<size_t>(0);
constexpr int kEqPred = -1;

/// Predicate interner entry shared by every pass: one builtin-registry
/// lookup per distinct predicate for the whole run, and integer ids instead
/// of string-keyed maps in the graph passes. Programs have a handful of
/// predicates, so linear search allocates nothing and beats hashing.
struct PredInfo {
  std::string name;
  const BuiltinDef* builtin = nullptr;
  size_t arity = kNoArity;        ///< first seen arity (CheckArities)
  const Atom* first_use = nullptr;
  bool is_head = false;           ///< appears as a rule/fact head
  bool is_derived = false;        ///< head of a non-fact rule
  bool is_read = false;           ///< appears in a rule body
};

/// Interned view of one atom, cached per rule by CheckArities so the
/// graph passes never re-run the string search. `id` is kEqPred for the
/// '=' pseudo-predicate, a preds index otherwise (meta atoms included).
struct AtomId {
  int id = kEqPred;
  bool meta = false;
};

/// Reusable whole-run storage. A run fills these and leaves the capacity
/// behind for the next run on the same thread, so the program-level passes
/// perform few per-run pool allocations (each rule's plan and the
/// stratification graph still allocate).
struct LintArena {
  std::vector<const Rule*> rules;
  std::vector<const Constraint*> constraints;
  std::vector<PredInfo> preds;
  std::vector<AtomId> atom_ids;
  std::vector<uint32_t> rule_ids_first;

  // Graph-pass scratch. Each pass re-initializes exactly what it uses, so
  // Reset() leaves these alone; drift_masks never shrinks, keeping its
  // inner capacity too.
  std::vector<char> is_edb;                           ///< per rule index
  std::vector<DependencyEdge> strat_edges;
  std::vector<std::vector<uint16_t>> drift_masks;     ///< per pred id
  std::vector<char> roots, reachable;                 ///< per pred id

  void Reset() {
    rules.clear();
    constraints.clear();
    preds.clear();
    atom_ids.clear();
    rule_ids_first.clear();
  }
};

class Linter {
 public:
  Linter(const LintOptions& opts, std::vector<std::string> self_names,
         LintArena* arena)
      : opts_(opts),
        builtins_(opts.builtins != nullptr ? *opts.builtins
                                           : StandardBuiltins()),
        self_names_(std::move(self_names)),
        arena_(*arena),
        rules_(arena->rules),
        constraints_(arena->constraints),
        preds_(arena->preds),
        atom_ids_(arena->atom_ids),
        rule_ids_first_(arena->rule_ids_first) {
    arena->Reset();
    // Typical programs stay under this; at most one allocation per thread,
    // ever (the arena keeps capacity across runs).
    preds_.reserve(48);
  }

  void AddRule(const Rule& rule) { rules_.push_back(&rule); }
  void AddConstraint(const Constraint& constraint) {
    constraints_.push_back(&constraint);
  }

  int PredId(const std::string& name) {
    for (size_t i = 0; i < preds_.size(); ++i) {
      if (preds_[i].name == name) return static_cast<int>(i);
    }
    PredInfo info;
    info.name = name;
    info.builtin = builtins_.Find(name);
    preds_.push_back(std::move(info));
    return static_cast<int>(preds_.size()) - 1;
  }

  const std::string& PredName(int id) const {
    return preds_[static_cast<size_t>(id)].name;
  }

  // One flat pool, heads then body per rule; rule_ids_first_[i] is rule
  // i's offset. Lengths come from the rule itself, so no per-rule vectors.
  AtomId HeadId(size_t rule, size_t h) const {
    return atom_ids_[rule_ids_first_[rule] + h];
  }
  AtomId BodyId(size_t rule, size_t b) const {
    return atom_ids_[rule_ids_first_[rule] + rules_[rule]->heads.size() + b];
  }

  AtomId IdFor(const Atom& atom) {
    AtomId out;
    out.meta = atom.meta_atom || atom.meta_functor;
    if (atom.predicate != "=") out.id = PredId(atom.predicate);
    return out;
  }

  bool IsEdb(size_t rule) const { return arena_.is_edb[rule] != 0; }

  LintReport Run() {
    CheckArities();  // also fills arena_.is_edb and the dead-code flags
    for (size_t i = 0; i < rules_.size(); ++i) {
      if (!IsEdb(i)) CheckRule(static_cast<int>(i), *rules_[i]);
      if (opts_.says_check) CheckSays(static_cast<int>(i), *rules_[i]);
    }
    CheckStratification();
    CheckConstantDrift();
    CheckDeadCode();
    return std::move(report_);
  }

 private:
  // Cold + noinline: clean programs never emit, and the attribute lets the
  // compiler move every diagnostic-formatting block (the StrCat chains at
  // the call sites) out of the hot analysis loops' instruction stream.
#if defined(__GNUC__)
  __attribute__((cold, noinline))
#endif
  void Emit(LintSeverity severity, const char* code, int rule_index,
            const Rule* rule, std::string predicate, std::string variable,
            int position, std::string message) {
    Diagnostic d;
    d.severity = severity;
    d.code = code;
    d.rule_index = rule_index;
    if (rule != nullptr) d.rule = PrintRule(*rule);
    d.predicate = std::move(predicate);
    d.variable = std::move(variable);
    d.position = position;
    d.message = std::move(message);
    report_.diagnostics.push_back(std::move(d));
  }

  // L030: one predicate, one arity — across heads, bodies, facts and
  // constraints; builtins against their registered arity. Doubles as the
  // interning sweep: every atom's predicate id is cached in rule_ids_ for
  // the stratification/drift/dead-code passes.
  void CheckArities() {
    auto check = [&](const Atom& atom, AtomId aid, int rule_index,
                     const Rule* rule, int position) {
      if (aid.meta || aid.id == kEqPred) return;
      const std::string& pred = atom.predicate;
      size_t arity = atom.Arity();
      PredInfo& info = preds_[static_cast<size_t>(aid.id)];
      if (info.builtin != nullptr) {
        if (arity != info.builtin->arity) {
          Emit(LintSeverity::kError, "L030", rule_index, rule, pred, "",
               position,
               util::StrCat("builtin '", pred, "' expects ",
                            info.builtin->arity, " arguments, got ", arity,
                            " in ", PrintAtom(atom)));
        }
        return;
      }
      if (info.arity == kNoArity) {
        info.arity = arity;
        info.first_use = &atom;
      } else if (info.arity != arity) {
        Emit(LintSeverity::kError, "L030", rule_index, rule, pred, "",
             position,
             util::StrCat("predicate '", pred, "' used at arity ", arity,
                          " in ", PrintAtom(atom), " but at arity ",
                          info.arity, " in ", PrintAtom(*info.first_use)));
      }
    };
    size_t total_atoms = 0;
    for (const Rule* rule : rules_) {
      total_atoms += rule->heads.size() + rule->body.size();
    }
    atom_ids_.reserve(total_atoms);
    rule_ids_first_.reserve(rules_.size());
    arena_.is_edb.assign(rules_.size(), 0);
    for (size_t i = 0; i < rules_.size(); ++i) {
      const Rule& rule = *rules_[i];
      const bool fact = IsGroundFactRule(rule);
      arena_.is_edb[i] = fact ? 1 : 0;
      rule_ids_first_.push_back(static_cast<uint32_t>(atom_ids_.size()));
      for (const Atom& h : rule.heads) {
        atom_ids_.push_back(IdFor(h));
        const AtomId aid = atom_ids_.back();
        if (aid.id != kEqPred) {
          // Dead-code flags ride the interning sweep; CheckDeadCode only
          // reads them.
          PredInfo& info = preds_[static_cast<size_t>(aid.id)];
          info.is_head = true;
          if (!fact) info.is_derived = true;
        }
        check(h, aid, static_cast<int>(i), &rule, -1);
      }
      for (size_t b = 0; b < rule.body.size(); ++b) {
        atom_ids_.push_back(IdFor(rule.body[b].atom));
        const AtomId aid = atom_ids_.back();
        if (aid.id != kEqPred &&
            preds_[static_cast<size_t>(aid.id)].builtin == nullptr) {
          preds_[static_cast<size_t>(aid.id)].is_read = true;
        }
        check(rule.body[b].atom, aid, static_cast<int>(i), &rule,
              static_cast<int>(b));
      }
    }
    for (const Constraint* c : constraints_) {
      for (const Literal& l : c->lhs) check(l.atom, IdFor(l.atom), -1, nullptr, -1);
      for (const auto& alt : c->rhs_dnf) {
        for (const Literal& l : alt) check(l.atom, IdFor(l.atom), -1, nullptr, -1);
      }
    }
  }

  // Safety / range restriction (L001-L005) and the column cap (L030):
  // formats the verdict of the same plan CompileRule lowers, so a lint
  // error here is exactly a CompileRule rejection, with the offending
  // variable and schedule position attached.
  void CheckRule(int rule_index, const Rule& rule) {
    if (rule.heads.size() != 1) return;  // split upstream; defensive
    const RulePlan plan = PlanRule(rule, builtins_);
    const std::string& head = rule.heads[0].predicate;
    switch (plan.verdict) {
      case RulePlan::Verdict::kOk:
      case RulePlan::Verdict::kBuiltinArity:  // CheckArities emitted L030
        return;
      case RulePlan::Verdict::kNotInstallable:
        Emit(LintSeverity::kError, "L005", rule_index, &rule, head, "", -1,
             plan.status.message());
        return;
      case RulePlan::Verdict::kColumnCap: {
        const Atom& atom = plan.bad_literal < 0
                               ? rule.heads[0]
                               : rule.body[static_cast<size_t>(
                                               plan.bad_literal)]
                                     .atom;
        Emit(LintSeverity::kError, "L030", rule_index, &rule, atom.predicate,
             "", plan.bad_literal,
             util::StrCat("predicate '", atom.predicate, "' has ",
                          atom.Arity(), " columns; ", plan.status.message()));
        return;
      }
      case RulePlan::Verdict::kStuck:
        ExplainStuck(rule_index, rule, plan);
        return;
      case RulePlan::Verdict::kUnsafeHead:
        break;
    }
    if (plan.agg_input_unbound) {
      const std::string& v = rule.aggregate->input_var;
      Emit(LintSeverity::kError, "L004", rule_index, &rule, head, v, -1,
           util::StrCat("aggregate input variable '", v,
                        "' is not bound by the body of ", PrintRule(rule)));
    }
    if (plan.agg_result_bound) {
      const std::string& v = rule.aggregate->result_var;
      Emit(LintSeverity::kError, "L004", rule_index, &rule, head, v, -1,
           util::StrCat("aggregate result variable '", v,
                        "' must not be bound by the body of ",
                        PrintRule(rule)));
    }
    for (const std::string& v : plan.unbound_head_vars) {
      Emit(LintSeverity::kError, "L001", rule_index, &rule, head, v, -1,
           util::StrCat("head variable '", v,
                        "' is not bound by any positive body literal in ",
                        PrintRule(rule)));
    }
  }

  // Why each literal the plan could not schedule is stuck, with the exact
  // unbound variables and the position the schedule stalled at.
  void ExplainStuck(int rule_index, const Rule& rule, const RulePlan& plan) {
    const std::string at = util::StrCat(
        " (schedule stuck after ", plan.full.order.size(), " of ",
        plan.body.size(), " body literals)");
    std::vector<char> done(plan.body.size(), 0);
    for (int i : plan.full.order) done[static_cast<size_t>(i)] = 1;
    for (size_t i = 0; i < plan.body.size(); ++i) {
      if (done[i]) continue;
      const PlanLiteral& lit = plan.body[i];
      const Literal& src = rule.body[i];
      const std::string text = PrintLiteral(src);
      std::vector<int> unbound;
      auto first = [&]() -> std::string {
        return unbound.empty() ? "" : plan.vars.name(unbound[0]);
      };
      switch (lit.kind) {
        case PlanLiteral::Kind::kNegation:
          for (int slot : lit.shared_slots) {
            if (!plan.IsBound(slot)) unbound.push_back(slot);
          }
          Emit(LintSeverity::kError, "L002", rule_index, &rule,
               src.atom.predicate, first(), static_cast<int>(i),
               util::StrCat("variable(s) ", JoinVars(unbound, plan.vars),
                            " in negated literal ", text,
                            " are shared with the rest of the rule but no "
                            "positive literal can bind them",
                            at));
          break;
        case PlanLiteral::Kind::kEquality:
        case PlanLiteral::Kind::kBuiltin:
          for (const PlanColumn& col : lit.cols) {
            AppendUnbound(col, plan, &unbound);
          }
          Emit(LintSeverity::kError, "L003", rule_index, &rule,
               src.atom.predicate, first(), static_cast<int>(i),
               util::StrCat(lit.kind == PlanLiteral::Kind::kEquality
                                ? "neither side of "
                                : "no instantiation mode of ",
                            text, " is evaluable: variable(s) ",
                            JoinVars(unbound, plan.vars), " cannot be bound",
                            at));
          break;
        case PlanLiteral::Kind::kRelation:
          // Listed per arithmetic column, so a variable shared by two
          // columns is named twice.
          for (const PlanColumn& col : lit.cols) {
            if (col.kind != PlanColumn::Kind::kExpr) continue;
            std::vector<int> in_col;
            AppendUnbound(col, plan, &in_col);
            unbound.insert(unbound.end(), in_col.begin(), in_col.end());
          }
          Emit(LintSeverity::kError, "L005", rule_index, &rule,
               src.atom.predicate, first(), static_cast<int>(i),
               util::StrCat("relation literal ", text,
                            " matches through arithmetic over unbound "
                            "variable(s) ",
                            JoinVars(unbound, plan.vars), at));
          break;
      }
    }
  }

  // L060: speech attribution. A term denotes "self" if it is `me` or a
  // constant symbol naming one of self_names_.
  bool IsSelf(const Term& t) const {
    if (t.kind == Term::Kind::kMe) return true;
    if (t.kind == Term::Kind::kConstant &&
        t.value.kind() == ValueKind::kSymbol) {
      for (const std::string& name : self_names_) {
        if (!name.empty() && t.value.AsText() == name) return true;
      }
    }
    return false;
  }

  void CheckSays(int rule_index, const Rule& rule) {
    for (const Atom& h : rule.heads) {
      if (h.predicate != "says" || h.Arity() != 3 || h.partition) continue;
      const Term& speaker = h.args[0];
      if (IsSelf(speaker)) continue;
      if (speaker.kind == Term::Kind::kVariable) {
        Emit(LintSeverity::kWarning, "L060", rule_index, &rule, "says",
             speaker.var, -1,
             util::StrCat("rule re-attributes speech to variable speaker '",
                          speaker.var, "' in ", PrintAtom(h),
                          "; only the local principal can speak for itself"));
      } else {
        Emit(LintSeverity::kError, "L060", rule_index, &rule, "says", "", -1,
             util::StrCat("rule attributes speech to '", PrintTerm(speaker),
                          "' in ", PrintAtom(h),
                          ", a principal this context cannot speak for"));
      }
    }
    for (size_t b = 0; b < rule.body.size(); ++b) {
      const Atom& a = rule.body[b].atom;
      if (a.predicate != "says" || a.Arity() != 3 || a.partition) continue;
      const Term& dest = a.args[1];
      if (dest.kind == Term::Kind::kVariable || IsSelf(dest)) continue;
      Emit(LintSeverity::kError, "L060", rule_index, &rule, "says", "",
           static_cast<int>(b),
           util::StrCat("body literal ", PrintAtom(a),
                        " imports a message addressed to '", PrintTerm(dest),
                        "', which this context cannot receive"));
    }
  }

  // L010: negation/aggregation through recursion, one diagnostic per
  // negative cycle StratifyGraph finds (Stratify rejects on the first).
  void CheckStratification() {
    std::vector<DependencyEdge>& edges = arena_.strat_edges;
    edges.clear();
    for (size_t i = 0; i < rules_.size(); ++i) {
      const Rule& rule = *rules_[i];
      if (rule.IsFact() || rule.heads.size() != 1) continue;
      const int head = HeadId(i, 0).id;
      if (head == kEqPred) continue;
      for (size_t b = 0; b < rule.body.size(); ++b) {
        const int pid = BodyId(i, b).id;
        if (pid == kEqPred ||
            preds_[static_cast<size_t>(pid)].builtin != nullptr) {
          continue;
        }
        bool negative = rule.body[b].negated || rule.aggregate.has_value();
        edges.push_back({pid, head, negative, static_cast<int>(i)});
      }
    }
    if (edges.empty()) return;
    const GraphStratification graph = StratifyGraph(preds_.size(), edges);
    auto name = [this](int id) -> const std::string& { return PredName(id); };
    for (const NegativeCycle& cycle : graph.cycles) {
      Emit(LintSeverity::kError, "L010", cycle.rule_index,
           rules_[static_cast<size_t>(cycle.rule_index)],
           PredName(cycle.preds[0]), "", -1,
           util::StrCat("not stratifiable: negation or aggregation "
                        "through the recursive cycle ",
                        CycleText(cycle, name)));
    }
  }

  // L031: a body constant of a kind no producer of that column can emit.
  // Per (pred id, column) a uint16 mask: bit 1<<kind per ValueKind seen,
  // kAnyProducer when a variable can put anything there, 0 = no producer
  // info at all (EDB fed from elsewhere: stay silent).
  void CheckConstantDrift() {
    static constexpr uint16_t kAnyProducer = 0x8000;
    auto& produced = arena_.drift_masks;
    if (produced.size() < preds_.size()) produced.resize(preds_.size());
    for (size_t i = 0; i < preds_.size(); ++i) produced[i].clear();
    auto term_mask = [](const Term& t) -> uint16_t {
      if (t.kind == Term::Kind::kConstant) {
        return static_cast<uint16_t>(1u << static_cast<int>(t.value.kind()));
      }
      if (t.kind == Term::Kind::kMe) {
        return static_cast<uint16_t>(1u
                                     << static_cast<int>(ValueKind::kSymbol));
      }
      return kAnyProducer;
    };
    auto record_producer = [&](const Atom& atom, AtomId aid) {
      if (aid.meta || aid.id == kEqPred) return;
      auto& cols = produced[static_cast<size_t>(aid.id)];
      if (cols.size() < atom.Arity()) cols.resize(atom.Arity(), 0);
      size_t ci = 0;
      if (atom.partition) cols[ci++] |= term_mask(*atom.partition);
      for (const Term& t : atom.args) cols[ci++] |= term_mask(t);
    };
    for (size_t i = 0; i < rules_.size(); ++i) {
      const Rule& rule = *rules_[i];
      for (size_t h = 0; h < rule.heads.size(); ++h) {
        record_producer(rule.heads[h], HeadId(i, h));
      }
    }
    for (size_t i = 0; i < rules_.size(); ++i) {
      const Rule& rule = *rules_[i];
      for (size_t b = 0; b < rule.body.size(); ++b) {
        const Atom& a = rule.body[b].atom;
        const AtomId aid = BodyId(i, b);
        if (aid.meta || aid.id == kEqPred ||
            preds_[static_cast<size_t>(aid.id)].builtin != nullptr) {
          continue;
        }
        const std::vector<uint16_t>& masks =
            produced[static_cast<size_t>(aid.id)];
        const Term* partition = a.partition.get();
        const size_t ncols = a.args.size() + (partition != nullptr ? 1 : 0);
        for (size_t ci = 0; ci < ncols; ++ci) {
          const Term& t = (partition != nullptr)
                              ? (ci == 0 ? *partition : a.args[ci - 1])
                              : a.args[ci];
          if (t.kind != Term::Kind::kConstant) continue;
          if (ci >= masks.size()) continue;  // EDB elsewhere: unknown
          uint16_t mask = masks[ci];
          if (mask == 0 || (mask & kAnyProducer) != 0) continue;
          ValueKind kind = t.value.kind();
          if ((mask & (1u << static_cast<int>(kind))) != 0) continue;
          std::string kinds;
          for (int k = 0; k < 16; ++k) {
            if ((mask & (1u << k)) == 0) continue;
            if (!kinds.empty()) kinds += "/";
            kinds += ValueKindName(static_cast<ValueKind>(k));
          }
          Emit(LintSeverity::kWarning, "L031", static_cast<int>(i), &rule,
               a.predicate, "", static_cast<int>(b),
               util::StrCat("constant ", PrintTerm(t), " (",
                            ValueKindName(kind), ") in ", PrintAtom(a),
                            " can never unify: every '", a.predicate,
                            "' producer emits ", kinds, " at column ", ci));
        }
      }
    }
  }

  // L020/L021 roots: exported predicates, constraints, and side-effecting
  // predicates the engine itself consumes.
  static bool SideEffecting(const std::string& pred) {
    return pred == "says" || pred == "active" || pred == "export" ||
           pred == "fail" || (!pred.empty() && pred[0] == '$');
  }

  void CheckDeadCode() {
    // Meta programs opt out wholesale; everything below runs on the atom
    // ids cached by CheckArities, so 'roots' from exports are the only
    // lookups that can still intern a new predicate.
    for (const AtomId& aid : atom_ids_) {
      if (aid.meta) return;  // meta program: skip
    }
    auto& roots = arena_.roots;
    roots.assign(preds_.size(), 0);
    auto mark_root = [&](const std::string& pred) {
      const size_t pid = static_cast<size_t>(PredId(pred));
      if (roots.size() <= pid) roots.resize(preds_.size(), 0);
      roots[pid] = 1;
    };
    for (const Constraint* c : constraints_) {
      for (const Literal& l : c->lhs) mark_root(l.atom.predicate);
      for (const auto& alt : c->rhs_dnf) {
        for (const Literal& l : alt) mark_root(l.atom.predicate);
      }
    }
    for (size_t pid = 0; pid < preds_.size(); ++pid) {
      if (preds_[pid].is_head && SideEffecting(preds_[pid].name)) {
        roots[pid] = 1;
      }
    }
    if (!opts_.exports.empty()) {
      for (const std::string& e : opts_.exports) mark_root(e);
    } else {
      // No declared query surface: sink predicates (derived but read by
      // nobody) ARE the query surface.
      for (size_t pid = 0; pid < preds_.size(); ++pid) {
        if (preds_[pid].is_derived && !preds_[pid].is_read) roots[pid] = 1;
      }
    }
    roots.resize(preds_.size(), 0);  // exports may have interned new ids
    if (std::find(roots.begin(), roots.end(), 1) == roots.end()) {
      return;  // nothing to anchor reachability on
    }

    // reachable = predicates some root depends on (transitively).
    auto& reachable = arena_.reachable;
    reachable.assign(roots.begin(), roots.end());
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < rules_.size(); ++i) {
        if (rules_[i]->IsFact()) continue;
        const int head = HeadId(i, 0).id;
        if (head == kEqPred || !reachable[static_cast<size_t>(head)]) {
          continue;
        }
        for (size_t b = 0; b < rules_[i]->body.size(); ++b) {
          const AtomId aid = BodyId(i, b);
          if (aid.id == kEqPred ||
              preds_[static_cast<size_t>(aid.id)].builtin != nullptr) {
            continue;
          }
          char& flag = reachable[static_cast<size_t>(aid.id)];
          if (!flag) {
            flag = 1;
            changed = true;
          }
        }
      }
    }

    for (size_t i = 0; i < rules_.size(); ++i) {
      const Rule& rule = *rules_[i];
      if (IsEdb(i) || rule.heads.size() != 1) continue;
      const int head = HeadId(i, 0).id;
      if (head == kEqPred || reachable[static_cast<size_t>(head)]) continue;
      Emit(LintSeverity::kWarning, "L020", static_cast<int>(i), &rule,
           rule.heads[0].predicate, "", -1,
           util::StrCat("dead rule: '", rule.heads[0].predicate,
                        "' is unreachable from any exported, constrained or "
                        "side-effecting predicate"));
    }
    if (!opts_.exports.empty()) {
      for (size_t pid = 0; pid < preds_.size(); ++pid) {
        const PredInfo& info = preds_[pid];
        if (!info.is_derived || info.is_read || roots[pid]) continue;
        Emit(LintSeverity::kWarning, "L021", -1, nullptr, info.name, "", -1,
             util::StrCat("predicate '", info.name,
                          "' is derived but never read by any rule, "
                          "constraint or export"));
      }
    }
  }

  const LintOptions& opts_;
  const BuiltinRegistry& builtins_;
  std::vector<std::string> self_names_;
  // Pooled in the per-thread LintArena; cleared at construction, capacity
  // reused across runs.
  LintArena& arena_;
  std::vector<const Rule*>& rules_;
  std::vector<const Constraint*>& constraints_;
  std::vector<PredInfo>& preds_;
  std::vector<AtomId>& atom_ids_;
  std::vector<uint32_t>& rule_ids_first_;
  LintReport report_;
};

std::string JsonStr(const std::string& s) {
  return util::StrCat("\"", obs::LabelEscape(s), "\"");
}

}  // namespace

const char* LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kError: return "error";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kInfo: return "info";
  }
  return "?";
}

std::string Diagnostic::ToJson() const {
  return util::StrCat(
      "{\"code\":", JsonStr(code), ",\"severity\":\"",
      LintSeverityName(severity), "\",\"rule\":", rule_index,
      ",\"source\":", JsonStr(rule), ",\"predicate\":", JsonStr(predicate),
      ",\"variable\":", JsonStr(variable), ",\"position\":", position,
      ",\"message\":", JsonStr(message), "}");
}

size_t LintReport::errors() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == LintSeverity::kError) ++n;
  }
  return n;
}

size_t LintReport::warnings() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == LintSeverity::kWarning) ++n;
  }
  return n;
}

std::string LintReport::ToText() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += util::StrCat(d.code, " ", LintSeverityName(d.severity), ": ",
                        d.message, "\n");
  }
  return out;
}

std::string LintReport::ToJson() const {
  std::string out = "{\"diagnostics\":[";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += diagnostics[i].ToJson();
  }
  out += util::StrCat("],\"errors\":", errors(), ",\"warnings\":", warnings(),
                      "}");
  return out;
}

util::Status LintReport::ToStatus() const {
  const Diagnostic* first = nullptr;
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity != LintSeverity::kError) continue;
    if (first == nullptr) first = &d;
    ++n;
  }
  if (first == nullptr) return util::OkStatus();
  std::string msg = util::StrCat("lint ", first->code, ": ", first->message);
  if (n > 1) msg += util::StrCat(" (and ", n - 1, " more error(s))");
  if (first->code == "L010") return util::NotStratifiable(msg);
  if (first->code == "L030") return util::TypeError(msg);
  return util::UnsafeProgram(msg);
}

LintReport LintRules(const std::vector<const Rule*>& rules,
                     const LintOptions& opts) {
  return LintResolved(rules, {}, opts);
}

LintReport LintResolved(const std::vector<const Rule*>& rules,
                        const std::vector<const Constraint*>& constraints,
                        const LintOptions& opts) {
  static thread_local LintArena arena;
  Linter linter(opts, {opts.says_principal}, &arena);
  std::deque<Rule> split;  // multi-head rules, split like install
  for (const Rule* rule : rules) {
    if (rule->heads.size() == 1) {
      linter.AddRule(*rule);
      continue;
    }
    for (Rule& single : SplitHeads(*rule)) {
      linter.AddRule(split.emplace_back(std::move(single)));
    }
  }
  for (const Constraint* c : constraints) linter.AddConstraint(*c);
  return linter.Run();
}

LintReport LintProgram(std::string_view program, const std::string& principal,
                       const LintOptions& opts) {
  auto routed = RouteProgram(program, principal);
  if (!routed.ok()) {
    LintReport report;
    Diagnostic d;
    d.severity = LintSeverity::kError;
    d.code = "L000";
    d.message = routed.status().message();
    report.diagnostics.push_back(std::move(d));
    return report;
  }
  static thread_local LintArena arena;
  Linter linter(opts, {principal, opts.says_principal}, &arena);
  for (const RoutedClause& item : *routed) {
    if (item.kind == RoutedClause::Kind::kRule) {
      linter.AddRule(item.rule);
    } else {
      linter.AddConstraint(item.constraint);
    }
  }
  return linter.Run();
}

void LintJoinOrder(const CompiledRule& rule, int rule_index,
                   const std::function<size_t(const std::string&)>& rows,
                   std::vector<Diagnostic>* out) {
  if (rule.order_full.empty() || rows == nullptr) return;
  const int lead_idx = rule.order_full[0];
  const CompiledLiteral& lead = rule.body[static_cast<size_t>(lead_idx)];
  if (lead.kind != CompiledLiteral::Kind::kRelation) return;
  for (const CompiledArg& col : lead.cols) {
    if (col.kind == CompiledArg::Kind::kConst) return;  // not a blind scan
  }
  // Semi-naive evaluation drives recursive rules from the delta orders;
  // the full order only runs on the first round.
  if (lead.pred == rule.head_pred) return;
  const size_t lead_rows = rows(lead.pred);
  if (lead_rows == kUnknownRows || lead_rows < 16) return;

  const CompiledLiteral* best = nullptr;
  size_t best_rows = kUnknownRows;
  for (size_t b = 0; b < rule.body.size(); ++b) {
    if (static_cast<int>(b) == lead_idx) continue;
    const CompiledLiteral& lit = rule.body[b];
    if (lit.kind != CompiledLiteral::Kind::kRelation) continue;
    if (lit.pred == lead.pred) continue;  // same relation: no better lead
    const size_t r = rows(lit.pred);
    if (r == kUnknownRows) continue;
    if (best == nullptr || r < best_rows) {
      best = &lit;
      best_rows = r;
    }
  }
  if (best == nullptr || best_rows * 4 > lead_rows) return;

  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.1f",
                best_rows == 0
                    ? static_cast<double>(lead_rows)
                    : static_cast<double>(lead_rows) /
                          static_cast<double>(best_rows));
  Diagnostic d;
  d.severity = LintSeverity::kWarning;
  d.code = "L050";
  d.rule_index = rule_index;
  d.rule = PrintRule(rule.source);
  d.predicate = lead.pred;
  d.position = lead_idx;
  d.message = util::StrCat(
      "cardinality-blind leading scan: the schedule leads with a full scan "
      "of '",
      lead.pred, "' (", lead_rows, " rows) while '", best->pred, "' (",
      best_rows, " rows) is ", ratio,
      "x smaller; the greedy scheduler cannot see cardinalities — consider "
      "reordering or cost-based ordering (ROADMAP item 5)");
  out->push_back(std::move(d));
}

}  // namespace lbtrust::datalog
