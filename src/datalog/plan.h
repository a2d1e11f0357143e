#ifndef LBTRUST_DATALOG_PLAN_H_
#define LBTRUST_DATALOG_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "datalog/builtins.h"
#include "datalog/unify.h"
#include "util/status.h"

namespace lbtrust::datalog {

/// One column of a planned head or body literal.
struct PlanColumn {
  enum class Kind {
    kConst,    ///< no variables: fully ground at compile time
    kVar,      ///< a single plain variable
    kPattern,  ///< term containing variables that *bind* on match
               ///< (quoted-code patterns, partition refs with variables)
    kExpr,     ///< arithmetic term: check-only, requires operands bound
  };
  Kind kind = Kind::kConst;
  int slot = -1;  ///< kVar
  /// Slot of every variable occurrence in the term, quoted code included:
  /// pattern variables share the enclosing rule's scope (§3.3).
  std::vector<int> term_slots;
};

struct PlanLiteral {
  enum class Kind { kRelation, kNegation, kBuiltin, kEquality };
  Kind kind = Kind::kRelation;
  const BuiltinDef* builtin = nullptr;  ///< kBuiltin; negated '=' runs as '!='
  bool negated = false;                 ///< kBuiltin: a negated builtin
  std::vector<PlanColumn> cols;         ///< partition key first
  /// kNegation: the literal's slots that also occur in the head or in
  /// another body literal, deduplicated in column order. They must be
  /// bound before the negation runs; its other variables are wildcards.
  std::vector<int> shared_slots;
};

/// One evaluation order of a rule body.
struct PlannedOrder {
  std::vector<int> order;  ///< body indexes in visit order
  /// masks[i]: bit c is set when column c of body[order[i]] is ground on
  /// arrival (a constant, or every variable bound by an earlier literal).
  std::vector<uint64_t> masks;
};

/// The planner's view of one single-head rule: variables interned to
/// slots, every column and body literal classified, and the body ordered
/// greedily by boundness — the full order here, and on request the order
/// for each delta position (DeltaOrder). When the rule cannot run,
/// `verdict` says why and the fields below it carry the evidence.
struct RulePlan {
  enum class Verdict {
    kOk,
    kNotInstallable,  ///< ValidateInstallableRule refused the rule
    kColumnCap,       ///< an atom has more than Relation::kMaxArity columns
    kBuiltinArity,    ///< a builtin literal has the wrong argument count
    kStuck,           ///< no remaining body literal can be scheduled
    kUnsafeHead,      ///< a head or aggregate variable is not range-restricted
  };
  Verdict verdict = Verdict::kOk;
  util::Status status;  ///< what CompileRule returns for this verdict
  int bad_literal = -1;  ///< kColumnCap/kBuiltinArity: body index, -1 = head

  VarTable vars;
  std::vector<PlanColumn> head;
  std::vector<PlanLiteral> body;
  std::vector<int> relation_positions;  ///< body indexes of kRelation literals
  /// The full order; for kStuck, the literals scheduled before the stall.
  PlannedOrder full;
  /// Per slot: bound at the end of the full order (at the stall for kStuck).
  std::vector<char> bound;
  int agg_input_slot = -1;
  int agg_result_slot = -1;

  /// kUnsafeHead evidence, in the order CompileRule reports it.
  bool agg_input_unbound = false;
  bool agg_result_bound = false;
  std::vector<std::string> unbound_head_vars;  ///< outside quoted code, deduped

  bool IsBound(int slot) const {
    return slot >= 0 && static_cast<size_t>(slot) < bound.size() &&
           bound[static_cast<size_t>(slot)] != 0;
  }

  /// The order semi-naive evaluation uses when a delta drives the relation
  /// literal at body index `pos`: that literal first, then the greedy walk.
  /// Defined once the full walk succeeded (binding is monotone, so it can
  /// no longer stall).
  PlannedOrder DeltaOrder(int pos) const;
};

/// Plans `rule`, which must be single-head and me-resolved. This is the one
/// place rule scheduling is decided: CompileRule lowers the plan, lint
/// formats a failed plan's verdict as diagnostics, and EXPLAIN prints the
/// plan's masks.
RulePlan PlanRule(const Rule& rule, const BuiltinRegistry& builtins);

}  // namespace lbtrust::datalog

#endif  // LBTRUST_DATALOG_PLAN_H_
