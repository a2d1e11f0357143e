#ifndef LBTRUST_DATALOG_ANALYSIS_H_
#define LBTRUST_DATALOG_ANALYSIS_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/ast.h"
#include "datalog/builtins.h"
#include "util/status.h"

namespace lbtrust::datalog {

/// Predicate stratification of a rule set. Negation and aggregation induce
/// "must be strictly lower" edges; a cycle through such an edge makes the
/// program non-stratifiable (kNotStratifiable).
struct Stratification {
  /// Stratum index per derived predicate.
  std::unordered_map<std::string, int> level;
  /// Predicates grouped by stratum, bottom-up.
  std::vector<std::vector<std::string>> strata;
};

/// A body -> head edge of the predicate dependency graph, over dense
/// predicate ids. Negative when the body literal is negated or the rule
/// aggregates: the head must then sit in a strictly higher stratum.
struct DependencyEdge {
  int src = 0;  ///< body predicate
  int dst = 0;  ///< head predicate
  bool negative = false;
  int rule_index = 0;  ///< the rule the edge comes from
};

/// A dependency cycle through a negative edge: `preds` runs from the
/// edge's body predicate to its head and back along a shortest path, so
/// it starts and ends with the same id.
struct NegativeCycle {
  int rule_index = 0;  ///< the rule of the negative edge
  std::vector<int> preds;
};

/// The verdict of StratifyGraph.
struct GraphStratification {
  /// One cycle per distinct negative (src, dst) edge inside a strongly
  /// connected component, in the order the edges were given; empty iff
  /// the graph is stratifiable.
  std::vector<NegativeCycle> cycles;
  /// Stratum per predicate id: the longest path to it, counting negative
  /// edges between components. Meaningful only when `cycles` is empty.
  std::vector<int> level;
};

/// Decides stratification over predicate ids [0, num_preds): the one
/// routine behind both Stratify and the linter's L010.
GraphStratification StratifyGraph(size_t num_preds,
                                  const std::vector<DependencyEdge>& edges);

/// Renders a cycle as `a -!-> b -> a`, naming ids through `name`.
std::string CycleText(const NegativeCycle& cycle,
                      const std::function<const std::string&(int)>& name);

/// Computes a stratification over the given (single-head, installed) rules.
/// `builtins` lets the analysis skip builtin predicates (they never carry
/// derived tuples). A program with a negative cycle fails with
/// kNotStratifiable, naming the first cycle StratifyGraph reports.
util::Result<Stratification> Stratify(const std::vector<const Rule*>& rules,
                                      const BuiltinRegistry& builtins);

/// Install-time structural validation: no meta-atoms / meta-functors /
/// star patterns outside quoted code, exactly one head, no negated heads.
util::Status ValidateInstallableRule(const Rule& rule);

}  // namespace lbtrust::datalog

#endif  // LBTRUST_DATALOG_ANALYSIS_H_
