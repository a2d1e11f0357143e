#ifndef LBTRUST_DATALOG_UNIFY_H_
#define LBTRUST_DATALOG_UNIFY_H_

#include <string>
#include <vector>

#include "datalog/ast.h"
#include "datalog/value.h"
#include "datalog/value_pool.h"
#include "util/status.h"

namespace lbtrust::datalog {

/// Rule-scope variable table: maps variable names to dense slots. All
/// variables of a rule — including variables inside quoted-code constants,
/// which act as pattern variables (§3.3 "meta-variables") — share one scope,
/// so a meta-variable bound by a body pattern joins with its other
/// occurrences. Rules have a handful of variables, so lookups scan the
/// names linearly instead of hashing.
class VarTable {
 public:
  /// Returns the slot for `name`, adding it if new.
  int Intern(const std::string& name);
  /// Returns the slot or -1.
  int Find(const std::string& name) const;
  size_t size() const { return names_.size(); }
  const std::string& name(int slot) const { return names_[slot]; }

 private:
  std::vector<std::string> names_;
};

/// Slot-indexed bindings over interned values; a nil ValueId (the default)
/// means unbound. Slots hold 8-byte ids so binding, comparing and copying
/// in join loops never touch shared_ptr payloads; `Get`/`Set` bridge to
/// full Values at pattern/builtin boundaries through the attached pool.
struct Bindings {
  ValuePool* pool = ValuePool::Default();
  std::vector<ValueId> slots;

  void EnsureSize(size_t n) {
    if (slots.size() < n) slots.resize(n);
  }
  bool IsBound(int slot) const {
    return slot < static_cast<int>(slots.size()) && !slots[slot].is_nil();
  }
  /// Materializes the bound value (callers must check IsBound first).
  Value Get(int slot) const { return pool->Get(slots[slot]); }
  /// Interns and binds (no trail bookkeeping — evaluator-internal).
  void Set(int slot, const Value& v) { slots[slot] = pool->Intern(v); }
};

/// Slots bound during a unification attempt; unwound on backtrack.
using Trail = std::vector<int>;

/// Star patterns (`A*`, `T*`) bind in their own namespace so that the
/// paper's idiom `[| A <- P(T*), A*. |]` — where `A` names both the head
/// placeholder and the "rest of body" star — does not self-collide (the
/// paper's meta-model translation treats both as independent).
inline std::string StarKey(const std::string& name) { return name + "$star"; }

void UndoTrail(const Trail& trail, Bindings* b);

/// The value a meta-variable receives when matched against a target term:
/// constants yield their value, variables/expressions yield a kCode term.
Value ValueFromTerm(const Term& t);

/// Inverse conversion used during code construction: scalar values become
/// constants, kCode term values splice back in as terms.
Term TermFromValue(const Value& v);

/// Unifies a pattern term against a runtime value (e.g. a code-valued
/// column). Binds pattern variables into `b`, recording new bindings in
/// `trail`. Returns false (leaving a partial trail for the caller to undo)
/// on mismatch.
bool UnifyTermValue(const Term& pattern, const Value& value, VarTable* vars,
                    Bindings* b, Trail* trail);

/// Structural unification of quoted-code fragments. Supports meta-variable
/// functors `P(...)`, whole-atom meta-variables `A`, and trailing Kleene
/// stars `A*` / `T*` which bind literal/term lists.
bool UnifyCodeValue(const CodeValue& pattern, const CodeValue& target,
                    VarTable* vars, Bindings* b, Trail* trail);
bool UnifyRulePattern(const Rule& pattern, const Rule& target, VarTable* vars,
                      Bindings* b, Trail* trail);
bool UnifyAtomPattern(const Atom& pattern, const Atom& target, VarTable* vars,
                      Bindings* b, Trail* trail);
bool UnifyTermPattern(const Term& pattern, const Term& target, VarTable* vars,
                      Bindings* b, Trail* trail);

/// Substitutes bound variables into an AST fragment (code construction for
/// quoted heads): bound meta-variables are replaced, arithmetic over
/// constants is folded, star variables bound to lists are spliced, and
/// unbound variables survive as variables of the constructed code.
Term SubstituteTerm(const Term& t, const VarTable& vars, const Bindings& b);
Atom SubstituteAtom(const Atom& a, const VarTable& vars, const Bindings& b);
Rule SubstituteRule(const Rule& r, const VarTable& vars, const Bindings& b);

/// True if the term (transitively, including quoted code) mentions any
/// variable that is unbound under `b`.
bool TermHasUnboundVars(const Term& t, const VarTable& vars,
                        const Bindings& b);

/// Evaluates a term to a runtime value: variables must be bound, arithmetic
/// must be numeric, quoted code is substituted (it may legitimately retain
/// inner variables), partition references build kPart values.
util::Result<Value> EvalGroundTerm(const Term& t, const VarTable& vars,
                                   const Bindings& b);

}  // namespace lbtrust::datalog

#endif  // LBTRUST_DATALOG_UNIFY_H_
