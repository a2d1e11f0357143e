#include "datalog/analysis.h"

#include <algorithm>
#include <deque>
#include <set>

#include "datalog/pretty.h"
#include "util/strings.h"

namespace lbtrust::datalog {

using util::Result;
using util::Status;

Status ValidateInstallableRule(const Rule& rule) {
  if (rule.heads.size() != 1) {
    return util::Internal("installable rules must have exactly one head");
  }
  auto bad = [&](const std::string& what) {
    return util::UnsafeProgram(util::StrCat(
        what, " outside quoted code in rule: ", PrintRule(rule)));
  };
  auto check_atom = [&](const Atom& a) -> Status {
    if (a.meta_atom || a.star) return bad("meta-atom pattern");
    if (a.meta_functor) return bad("meta-variable functor");
    for (const Term& t : a.args) {
      if (t.kind == Term::Kind::kStarVar) return bad("star variable");
    }
    if (a.partition && a.partition->kind == Term::Kind::kStarVar) {
      return bad("star variable");
    }
    return util::OkStatus();
  };
  LB_RETURN_IF_ERROR(check_atom(rule.heads[0]));
  for (const Literal& l : rule.body) {
    LB_RETURN_IF_ERROR(check_atom(l.atom));
  }
  if (rule.aggregate.has_value() && rule.body.empty()) {
    return util::UnsafeProgram("aggregate rule with empty body");
  }
  return util::OkStatus();
}

namespace {

/// Tarjan's SCCs over a CSR adjacency (node v's successors are
/// succ[first[v] .. first[v+1])), recording the nodes in the order their
/// components complete: a component completes after every component it
/// reaches, so that order, reversed, is topological.
class SccFinder {
 public:
  SccFinder(const std::vector<int>& first, const std::vector<int>& succ)
      : first_(first),
        succ_(succ),
        index_(first.size() - 1, -1),
        lowlink_(first.size() - 1, -1),
        on_stack_(first.size() - 1, 0),
        scc_of_(first.size() - 1, -1) {
    for (size_t v = 0; v < scc_of_.size(); ++v) {
      if (index_[v] < 0) Connect(static_cast<int>(v));
    }
  }

  /// Component id per node.
  const std::vector<int>& scc_of() const { return scc_of_; }
  /// Node ids, component by component, in completion order.
  const std::vector<int>& completed() const { return completed_; }

 private:
  void Connect(int v) {
    const size_t vi = static_cast<size_t>(v);
    index_[vi] = lowlink_[vi] = next_index_++;
    stack_.push_back(v);
    on_stack_[vi] = 1;
    for (int k = first_[vi]; k < first_[vi + 1]; ++k) {
      const int w = succ_[static_cast<size_t>(k)];
      const size_t wi = static_cast<size_t>(w);
      if (index_[wi] < 0) {
        Connect(w);
        lowlink_[vi] = std::min(lowlink_[vi], lowlink_[wi]);
      } else if (on_stack_[wi]) {
        lowlink_[vi] = std::min(lowlink_[vi], index_[wi]);
      }
    }
    if (lowlink_[vi] != index_[vi]) return;
    while (true) {
      const int w = stack_.back();
      stack_.pop_back();
      on_stack_[static_cast<size_t>(w)] = 0;
      scc_of_[static_cast<size_t>(w)] = next_scc_;
      completed_.push_back(w);
      if (w == v) break;
    }
    ++next_scc_;
  }

  const std::vector<int>& first_;
  const std::vector<int>& succ_;
  std::vector<int> index_, lowlink_;
  std::vector<char> on_stack_;
  std::vector<int> scc_of_;
  std::vector<int> stack_, completed_;
  int next_index_ = 0;
  int next_scc_ = 0;
};

}  // namespace

GraphStratification StratifyGraph(size_t num_preds,
                                  const std::vector<DependencyEdge>& edges) {
  // CSR adjacency; each node's successors keep the order edges were added.
  std::vector<int> first(num_preds + 1, 0);
  for (const DependencyEdge& e : edges) ++first[static_cast<size_t>(e.src) + 1];
  for (size_t v = 0; v < num_preds; ++v) first[v + 1] += first[v];
  std::vector<int> succ(edges.size());
  std::vector<bool> succ_negative(edges.size());
  {
    std::vector<int> fill(first.begin(), first.end() - 1);
    for (const DependencyEdge& e : edges) {
      const size_t at = static_cast<size_t>(fill[static_cast<size_t>(e.src)]++);
      succ[at] = e.dst;
      succ_negative[at] = e.negative;
    }
  }
  SccFinder sccs(first, succ);
  const std::vector<int>& scc_of = sccs.scc_of();

  // One cycle per distinct negative edge inside a component, closed by a
  // breadth-first path from its head back to its body predicate.
  GraphStratification out;
  std::set<std::pair<int, int>> reported;
  for (const DependencyEdge& e : edges) {
    if (!e.negative ||
        scc_of[static_cast<size_t>(e.src)] !=
            scc_of[static_cast<size_t>(e.dst)] ||
        !reported.insert({e.src, e.dst}).second) {
      continue;
    }
    std::vector<int> parent(num_preds, -1);
    std::deque<int> queue{e.dst};
    parent[static_cast<size_t>(e.dst)] = e.dst;
    while (parent[static_cast<size_t>(e.src)] < 0) {
      const size_t v = static_cast<size_t>(queue.front());
      queue.pop_front();
      for (int k = first[v]; k < first[v + 1]; ++k) {
        const size_t w = static_cast<size_t>(succ[static_cast<size_t>(k)]);
        if (scc_of[w] != scc_of[v] || parent[w] >= 0) continue;
        parent[w] = static_cast<int>(v);
        queue.push_back(static_cast<int>(w));
      }
    }
    NegativeCycle cycle;
    cycle.rule_index = e.rule_index;
    for (int v = e.src; v != e.dst; v = parent[static_cast<size_t>(v)]) {
      cycle.preds.push_back(v);
    }
    cycle.preds.push_back(e.dst);
    cycle.preds.push_back(e.src);
    std::reverse(cycle.preds.begin(), cycle.preds.end());
    out.cycles.push_back(std::move(cycle));
  }

  // level(P) = max over incoming edges of level(Q), +1 if negative. In
  // topological component order every edge into a component is settled
  // before the component's own edges are read.
  std::vector<int> scc_level(num_preds, 0);
  const std::vector<int>& completed = sccs.completed();
  for (auto it = completed.rbegin(); it != completed.rend(); ++it) {
    const size_t v = static_cast<size_t>(*it);
    const size_t from = static_cast<size_t>(scc_of[v]);
    for (int k = first[v]; k < first[v + 1]; ++k) {
      const size_t to = static_cast<size_t>(
          scc_of[static_cast<size_t>(succ[static_cast<size_t>(k)])]);
      if (to == from) continue;
      scc_level[to] = std::max(
          scc_level[to],
          scc_level[from] + (succ_negative[static_cast<size_t>(k)] ? 1 : 0));
    }
  }
  out.level.resize(num_preds);
  for (size_t v = 0; v < num_preds; ++v) {
    out.level[v] = scc_level[static_cast<size_t>(scc_of[v])];
  }
  return out;
}

std::string CycleText(const NegativeCycle& cycle,
                      const std::function<const std::string&(int)>& name) {
  std::string out =
      util::StrCat(name(cycle.preds[0]), " -!-> ", name(cycle.preds[1]));
  for (size_t i = 2; i < cycle.preds.size(); ++i) {
    out += util::StrCat(" -> ", name(cycle.preds[i]));
  }
  return out;
}

Result<Stratification> Stratify(const std::vector<const Rule*>& rules,
                                const BuiltinRegistry& builtins) {
  std::vector<std::string> names;
  std::unordered_map<std::string, int> ids;
  auto id_of = [&](const std::string& pred) {
    auto [it, fresh] = ids.try_emplace(pred, static_cast<int>(names.size()));
    if (fresh) names.push_back(pred);
    return it->second;
  };
  std::vector<DependencyEdge> edges;
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = *rules[i];
    const int head = id_of(rule.heads[0].predicate);
    for (const Literal& lit : rule.body) {
      if (builtins.Find(lit.atom.predicate) != nullptr) continue;
      edges.push_back({id_of(lit.atom.predicate), head,
                       lit.negated || rule.aggregate.has_value(),
                       static_cast<int>(i)});
    }
  }

  GraphStratification graph = StratifyGraph(names.size(), edges);
  if (!graph.cycles.empty()) {
    const NegativeCycle& cycle = graph.cycles.front();
    auto name = [&](int id) -> const std::string& {
      return names[static_cast<size_t>(id)];
    };
    return util::NotStratifiable(util::StrCat(
        "negation or aggregation through recursion between '",
        name(cycle.preds[0]), "' and '", name(cycle.preds[1]),
        "' (cycle: ", CycleText(cycle, name), ")"));
  }

  Stratification out;
  int max_level = 0;
  for (int level : graph.level) max_level = std::max(max_level, level);
  out.strata.resize(static_cast<size_t>(max_level) + 1);
  for (size_t id = 0; id < names.size(); ++id) {
    out.level[names[id]] = graph.level[id];
    out.strata[static_cast<size_t>(graph.level[id])].push_back(names[id]);
  }
  return out;
}

}  // namespace lbtrust::datalog
