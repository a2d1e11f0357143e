#ifndef LBTRUST_DATALOG_AST_H_
#define LBTRUST_DATALOG_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datalog/value.h"

namespace lbtrust::datalog {

/// A term: variable, constant, `me`, arithmetic expression, partition
/// reference `pred[key]`, or a Kleene-star variable `T*` (legal only inside
/// quoted code patterns, where it matches the remaining argument list).
struct Term {
  enum class Kind {
    kVariable,
    kConstant,
    kMe,        ///< the local-principal keyword; resolved at install time
    kExpr,      ///< binary arithmetic over subterms
    kPartRef,   ///< pred[key] appearing as an argument (placement rules)
    kStarVar,   ///< T* pattern (quoted code only)
  };

  Kind kind = Kind::kConstant;
  std::string var;    ///< kVariable / kStarVar: name ("_"-vars get unique names)
  Value value;        ///< kConstant
  char op = 0;        ///< kExpr: '+', '-', '*', '/'
  std::shared_ptr<Term> lhs, rhs;       ///< kExpr operands
  std::string part_pred;                ///< kPartRef: predicate name
  std::shared_ptr<Term> part_key;       ///< kPartRef: key term

  static Term Variable(std::string name);
  static Term Constant(Value v);
  static Term Me();
  static Term Expr(char op, Term lhs, Term rhs);
  static Term PartRef(std::string pred, Term key);
  static Term StarVar(std::string name);

  bool is_variable() const { return kind == Kind::kVariable; }
  bool is_constant() const { return kind == Kind::kConstant; }
};

/// An atom. Besides ordinary `pred(args)` atoms this models the quoted-code
/// pattern forms of §3.3: a meta-variable functor (`P(T*)` where P ranges
/// over predicate names), a whole-atom meta-variable (`A`), and the
/// Kleene-starred atom (`A*`, matching the rest of a rule body).
struct Atom {
  std::string predicate;              ///< functor name, or meta-var name
  bool meta_functor = false;          ///< predicate is an (uppercase) meta-var
  bool meta_atom = false;             ///< whole atom is a meta-var (e.g. `A`)
  bool star = false;                  ///< `A*` (implies meta_atom)
  std::shared_ptr<Term> partition;    ///< p[X](...) partition key, or null
  std::vector<Term> args;

  /// Total column count of the underlying relation (partition key first).
  size_t Arity() const { return args.size() + (partition ? 1 : 0); }
};

/// A possibly negated atom in a rule body.
struct Literal {
  Atom atom;
  bool negated = false;
};

/// Aggregation spec: `agg<<N = fn(V)>> body` (§4.2.2).
struct Aggregate {
  enum class Fn { kCount, kTotal, kMin, kMax };
  Fn fn = Fn::kCount;
  std::string result_var;
  std::string input_var;
};

/// A rule `heads <- body.`; facts are rules with an empty body. Multi-atom
/// heads are kept for quoted code fidelity and split at install time.
class Rule {
 public:
  std::string label;                  ///< optional "exp1:"-style label
  std::vector<Atom> heads;
  std::vector<Literal> body;
  std::optional<Aggregate> aggregate;

  bool IsFact() const { return body.empty() && !aggregate.has_value(); }
};

/// A schema constraint `lhs -> rhs.` retained in source shape; compilation
/// into aux + fail rules happens in the workspace (see analysis.h).
struct Constraint {
  std::string label;
  std::vector<Literal> lhs;           ///< conjunction (DNF alternatives split)
  /// RHS in DNF: violation when lhs holds and no alternative holds.
  std::vector<std::vector<Literal>> rhs_dnf;
  std::string display;                ///< original text for diagnostics
};

/// One parsed top-level clause.
struct ParsedClause {
  enum class Kind { kRule, kConstraint };
  Kind kind = Kind::kRule;
  /// kRule: one or more rules (DNF of the body, one per head atom).
  std::vector<Rule> rules;
  /// kConstraint: one or more constraints (DNF of the LHS).
  std::vector<Constraint> constraints;
};

/// Deep structural equality (variable names significant).
bool TermEquals(const Term& a, const Term& b);
bool AtomEquals(const Atom& a, const Atom& b);
bool RuleEquals(const Rule& a, const Rule& b);

/// Deep copy helpers (AST nodes hold shared subterms; these clone).
Term CloneTerm(const Term& t);
Atom CloneAtom(const Atom& a);
Rule CloneRule(const Rule& r);

/// Collects variable names in order of first occurrence. Variables inside
/// quoted-code constants are NOT collected (they belong to the inner scope).
void CollectTermVars(const Term& t, std::vector<std::string>* out);
void CollectAtomVars(const Atom& a, std::vector<std::string>* out);

/// One single-head rule per head of `rule`, sharing its label, body and
/// aggregate: the form every rule is installed, linted and compiled in. A
/// single-head rule passes through unchanged.
std::vector<Rule> SplitHeads(Rule rule);

/// True for a fact whose heads are ground (quoted code may keep inner
/// variables — CollectAtomVars is shallow): such a clause routes to the
/// EDB rather than the rule set.
bool IsGroundFactRule(const Rule& rule);

/// Replaces every `me` term (including inside quoted code constants) with
/// the symbol constant `principal`. Used at rule-install time (§4.1).
Term ResolveMeTerm(const Term& t, const std::string& principal);
Atom ResolveMeAtom(const Atom& a, const std::string& principal);
Rule ResolveMeRule(const Rule& r, const std::string& principal);

}  // namespace lbtrust::datalog

#endif  // LBTRUST_DATALOG_AST_H_
