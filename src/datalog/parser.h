#ifndef LBTRUST_DATALOG_PARSER_H_
#define LBTRUST_DATALOG_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "datalog/ast.h"
#include "util/status.h"

namespace lbtrust::datalog {

/// Parses a whole program into clauses. The accepted dialect is exactly the
/// constructs used in the paper's listings — see DESIGN.md §6:
///
///   head <- body.           rules (bodies may nest , ; ! and parentheses;
///                           the parser DNF-splits into plain rules)
///   fact.                   facts
///   lhs -> rhs.             schema constraints; `p(X) ->.` declares an
///                           entity type, `p(X,Y) -> t(X), u(Y).` also
///                           records column types
///   agg<<N = count(U)>>     aggregation prefix after <-
///   [| ... |]               quoted code with meta-variables, star patterns
///   p[X](Y)                 partitioned (curried) predicates
///   me, _, 42, "s", sym, Var
util::Result<std::vector<ParsedClause>> ParseProgram(std::string_view source);

/// One top-level clause in installable form (see RouteProgram).
struct RoutedClause {
  enum class Kind { kRule, kFailConstraint, kConstraint };
  Kind kind = Kind::kRule;
  Rule rule;              ///< kRule: single-head
  Constraint constraint;  ///< kFailConstraint / kConstraint
};

/// Parses `program` and routes every clause the way Workspace::Load
/// installs it: me-resolved against `principal`, multi-head rules split,
/// and raw `fail() <- body.` rules (§3.2) turned into constraints. Lint
/// reads the same routed view, so it judges exactly what would install.
util::Result<std::vector<RoutedClause>> RouteProgram(
    std::string_view program, const std::string& principal);

/// Parses a single clause that must be a rule or fact (multi-head and DNF
/// splitting not applied — errors if the clause would split).
util::Result<Rule> ParseRuleText(std::string_view source);

/// Parses a single atom, e.g. for queries: "access(P,O,read)".
util::Result<Atom> ParseAtomText(std::string_view source);

/// Parses a single term, e.g. "[|p(a).|]" or "42".
util::Result<Term> ParseTermText(std::string_view source);

/// A group of surface-syntax rules under one `At <context>:` header (or the
/// header-less prefix). Used by the Binder and SeNDlog front-ends (§5).
struct SurfaceUnit {
  /// Context name as written ("S" in "At S:"); empty when no header.
  std::string context;
  /// True when the context is a variable (rules are generic over the
  /// executing principal and the front-end substitutes `me` for it).
  bool context_is_variable = false;
  std::vector<Rule> rules;
};

/// Parses the trust-management surface syntax shared by Binder and SeNDlog:
///
///   At S:                       context header (SeNDlog)
///   head :- body.               rules (<- also accepted)
///   p(X,Y)@Z :- ...             export head -> says(me,Z,[| p(X,Y). |])
///   ..., W says p(X), ...       import    -> says(W,me,[| p(X). |])
///
/// The produced rules are in core form (says lowered); context variables
/// are NOT yet substituted — front-ends replace them with `me`.
util::Result<std::vector<SurfaceUnit>> ParseSurfaceProgram(
    std::string_view source);

}  // namespace lbtrust::datalog

#endif  // LBTRUST_DATALOG_PARSER_H_
