#ifndef LBTRUST_DATALOG_EXPLAIN_H_
#define LBTRUST_DATALOG_EXPLAIN_H_

#include <string>
#include <vector>

#include "datalog/eval.h"
#include "datalog/lint.h"

namespace lbtrust::datalog {

/// EXPLAIN output formats: human text (one indented block per rule) or a
/// JSON document (`{"rules":[...]}`; a single rule renders as one object).
enum class ExplainFormat { kText, kJson };

/// Renders one compiled rule's plan: the literal schedule actually
/// executed (full order plus each per-delta-position order), the planner's
/// probe mask at every scheduled position (RulePlan's ground-column mask:
/// a column counts as bound iff it is a constant or every variable in it
/// was bound by an earlier literal — the masks the parallel evaluator
/// derives its index needs from), and the measured side, read from the
/// handles InstrumentRule resolved: per-rule cumulative
/// evals/derived/probes/eval-time counters and per-relation probe/hit
/// selectivities. This is the Prepare()-time
/// stats feed cost-based join ordering consumes
/// (ROADMAP item 5): plan = what the static scheduler chose, selectivity =
/// what the workload measured, disagreement = reorder opportunity.
/// `diagnostics` (optional) are this rule's lint findings: the JSON form
/// always carries a `"diagnostics"` array (empty when null/none) so
/// consumers can rely on the shape; text prints a `diagnostics:` section
/// only when non-empty.
std::string ExplainCompiledRule(const CompiledRule& rule, ExplainFormat format,
                                const std::vector<Diagnostic>* diagnostics =
                                    nullptr);

/// Renders a rule set: JSON `{"rules":[...]}` or concatenated text blocks.
/// `diagnostics`, when non-null, is aligned with `rules` (per-rule lint
/// findings; shorter is fine — missing entries render empty).
std::string ExplainCompiledRules(
    const std::vector<const CompiledRule*>& rules, ExplainFormat format,
    const std::vector<std::vector<Diagnostic>>* diagnostics = nullptr);

}  // namespace lbtrust::datalog

#endif  // LBTRUST_DATALOG_EXPLAIN_H_
