#ifndef LBTRUST_DATALOG_LINT_H_
#define LBTRUST_DATALOG_LINT_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/ast.h"
#include "datalog/builtins.h"
#include "datalog/eval.h"
#include "util/status.h"

namespace lbtrust::datalog {

/// Static program analysis ("lint"): proves a program safe before it
/// touches a workspace, and explains *why* when it is not. The per-rule
/// safety checks (L001-L005, and L030's column cap) format the verdict of
/// PlanRule — the same plan CompileRule lowers — so a lint error there is
/// exactly a CompileRule rejection, reported as a structured diagnostic
/// (the offending variable, predicate and schedule position) instead of
/// the engine's bare status string. L010 reports the negative cycles of
/// StratifyGraph, the routine Stratify rejects programs with.
///
/// Diagnostic codes:
///   L000  program does not parse                              (error)
///   L001  unbound head variable                               (error)
///   L002  unbound shared variable in a negated literal        (error)
///   L003  builtin/equality arguments unbindable in any mode   (error)
///   L004  aggregate input unbound / result pre-bound          (error)
///   L005  no safe evaluation order (other causes)             (error)
///   L010  negation/aggregation cycle (not stratifiable)       (error)
///   L020  rule unreachable from any exported/effectful root   (warning)
///   L021  predicate derived but never read (explicit exports) (warning)
///   L030  conflicting arities, or past the 64-column cap      (error)
///   L031  constant can never unify with any producer          (warning)
///   L050  cardinality-blind leading scan (join-order smell)   (warning)
///   L060  says-attribution/context violation                  (see below)
enum class LintSeverity { kError, kWarning, kInfo };

const char* LintSeverityName(LintSeverity severity);

/// One structured finding. `rule_index` indexes the linted rule list (the
/// split, me-resolved single-head view; -1 for program-level findings) and
/// `position` is the body literal's source index when the finding anchors
/// to one. ToJson() is a single JSON object; keys are always present so
/// consumers can rely on the shape.
struct Diagnostic {
  LintSeverity severity = LintSeverity::kError;
  std::string code;       ///< "L001"
  int rule_index = -1;    ///< index into the linted rules; -1 = program
  std::string rule;       ///< printed rule text ("" = program-level)
  std::string predicate;  ///< offending predicate, if any
  std::string variable;   ///< offending variable, if any
  int position = -1;      ///< body literal index (source order), if any
  std::string message;

  std::string ToJson() const;
};

struct LintOptions {
  /// Builtin registry used to classify body literals (mode strings drive
  /// the schedulability check). Null = the standard builtin set.
  const BuiltinRegistry* builtins = nullptr;
  /// Explicitly queryable predicates. When non-empty these (plus
  /// constraints and side-effecting predicates) are the only dead-code
  /// roots, and L021 fires for derived-but-never-read predicates. When
  /// empty, roots are inferred (sink predicates count as the query
  /// surface) and L021 is disabled.
  std::vector<std::string> exports;
  /// Enables the L060 says-context checks: a rule head `says(S, D, R)`
  /// must be attributed to the local principal (`me` or `says_principal`);
  /// a body literal `says(W, D, R)` with a constant destination other than
  /// the local principal reads a message this context cannot receive.
  /// Constant violations are errors; a variable speaker in a head is a
  /// warning (re-attribution). Off by default: core Datalog uses says as
  /// an ordinary relation (e.g. auth-scheme unwrap rules).
  bool says_check = false;
  /// The principal `me` resolves to for the says check (a constant symbol
  /// equal to this name counts as self-attribution).
  std::string says_principal;
};

class LintReport {
 public:
  std::vector<Diagnostic> diagnostics;

  size_t errors() const;
  size_t warnings() const;
  bool has_errors() const { return errors() > 0; }

  /// One line per diagnostic: `L001 error: <message>`.
  std::string ToText() const;
  /// `{"diagnostics":[...],"errors":N,"warnings":N}`.
  std::string ToJson() const;
  /// OkStatus when error-free; otherwise a status whose code matches what
  /// the engine itself would return (kNotStratifiable for L010, kTypeError
  /// for L030, kUnsafeProgram otherwise) carrying the first error's
  /// message.
  util::Status ToStatus() const;
};

/// Lints a set of installed-form rules (me-resolved; multi-head rules are
/// split internally). Fact rules contribute to the arity/type/dead-code
/// analyses but are not themselves flagged.
LintReport LintRules(const std::vector<const Rule*>& rules,
                     const LintOptions& opts = LintOptions());

/// Like LintRules but with schema constraints included: constraint
/// literals participate in the arity analysis and anchor dead-code
/// reachability. This is the workspace's ingress entry point — rules and
/// constraints arrive already me-resolved and routed, so no re-parse.
LintReport LintResolved(const std::vector<const Rule*>& rules,
                        const std::vector<const Constraint*>& constraints,
                        const LintOptions& opts = LintOptions());

/// Parses `program` (rules, facts, constraints), me-resolves it against
/// `principal` exactly as Workspace::Load would, and lints the result.
/// A parse failure yields a single L000 diagnostic.
LintReport LintProgram(std::string_view program, const std::string& principal,
                       const LintOptions& opts = LintOptions());

/// Returned by a row-count callback when the relation's cardinality is
/// unknown (the literal is then ignored by the join-order check).
inline constexpr size_t kUnknownRows = static_cast<size_t>(-1);

/// Appends L050 join-order-smell diagnostics for one compiled rule: the
/// full-order schedule leads with an unbound scan (probe_mask 0x0) of a
/// relation at least 4x larger than another body relation that could have
/// led instead — the BM_JoinOrderSelectiveLast shape the greedy,
/// cardinality-blind scheduler cannot see. `rows` maps a relation name to
/// its current row count (measured store size, or static fact counts);
/// return kUnknownRows to skip a relation. Self-recursive leads are
/// exempt (semi-naive evaluation drives them from the delta orders).
void LintJoinOrder(const CompiledRule& rule, int rule_index,
                   const std::function<size_t(const std::string&)>& rows,
                   std::vector<Diagnostic>* out);

}  // namespace lbtrust::datalog

#endif  // LBTRUST_DATALOG_LINT_H_
