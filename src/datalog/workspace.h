#ifndef LBTRUST_DATALOG_WORKSPACE_H_
#define LBTRUST_DATALOG_WORKSPACE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "datalog/builtins.h"
#include "datalog/catalog.h"
#include "datalog/eval.h"
#include "datalog/explain.h"
#include "datalog/lint.h"
#include "util/status.h"

namespace lbtrust::datalog {

class Workspace;

/// A compiled, reusable query handle — the hot read path of the session
/// model. `Workspace::Prepare()` lexes, parses, me-resolves and compiles the
/// atom pattern exactly once; every subsequent `Run()`/`Count()`/`Exists()`
/// evaluates the compiled plan directly against the current post-Fixpoint
/// store with no lexer, parser or rule-compiler involvement. Handles remain
/// valid across Fixpoint() calls, rule churn and scheme swaps (the plan
/// reads relations by name at evaluation time), so a server can prepare its
/// policy-decision queries at startup and serve every request through them.
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;
  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  /// The original pattern text, for diagnostics.
  const std::string& pattern() const { return pattern_; }
  /// Number of output columns per result tuple.
  size_t num_columns() const;

  /// Streams matching tuples; return false from `cb` to stop early.
  util::Status ForEach(const std::function<bool(const Tuple&)>& cb);
  /// Materializes all matching tuples.
  util::Result<std::vector<Tuple>> Run();
  /// Number of matches, without materializing a result vector.
  util::Result<size_t> Count();
  /// True iff at least one tuple matches (stops at the first match).
  util::Result<bool> Exists();

  /// Renders this query's compiled plan + measured selectivities (see
  /// ExplainCompiledRule). Distinct from Workspace::Explain(), which
  /// renders provenance derivation trees.
  std::string Explain(ExplainFormat format = ExplainFormat::kText) const;

 private:
  friend class Workspace;
  PreparedQuery(Workspace* workspace, std::string pattern,
                std::unique_ptr<CompiledRule> compiled)
      : workspace_(workspace),
        pattern_(std::move(pattern)),
        compiled_(std::move(compiled)) {}

  Workspace* workspace_;
  std::string pattern_;
  std::unique_ptr<CompiledRule> compiled_;
};

/// A batch mutation — the write path of the session model. Mutations staged
/// on a Transaction do not touch the workspace until `Commit()`, which
/// applies them in staging order and then runs a single `Fixpoint()`;
/// the commit records per-relation dirty deltas so an EDB-only batch takes
/// the delta-aware (semi-naive-from-delta) fixpoint path instead of a full
/// rebuild. `Abort()` discards the staged operations.
///
/// If applying a staged operation fails (parse error, arity mismatch, ...),
/// previously applied fact and rule operations of the same batch are rolled
/// back before the error is returned; predicate declarations and installed
/// constraints are idempotent metadata and are not undone. A constraint
/// violation reported by the commit-time Fixpoint() leaves the applied
/// mutations in place (matching the one-shot API, where callers typically
/// retract the offending fact or constraint and re-run Fixpoint()).
class Transaction {
 public:
  Transaction(Transaction&&) = default;
  Transaction& operator=(Transaction&&) = default;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Staging calls; errors (e.g. unparsable text) surface at Commit().
  Transaction& AddFact(std::string pred, Tuple tuple);
  Transaction& RemoveFact(std::string pred, Tuple tuple);
  Transaction& AddRule(const Rule& rule);
  Transaction& RemoveRule(const Rule& rule);
  Transaction& AddRuleText(std::string_view text);
  /// "p(a). q(1,2)." fact text, me-resolved to the workspace principal
  /// (or an explicit one).
  Transaction& AddFactText(std::string_view text);
  Transaction& AddFactTextAs(std::string principal, std::string_view text);
  /// Full program text (rules, facts, constraints), as Workspace::Load.
  Transaction& AddProgram(std::string_view text);
  Transaction& AddProgramAs(std::string principal, std::string_view text);
  /// Stages says(me, destination, [| rule_text |]) — batch counterpart of
  /// TrustRuntime::Say().
  Transaction& Say(std::string destination, std::string_view rule_text);

  /// Applies the staged operations in order, then runs one Fixpoint().
  util::Status Commit();
  /// Applies the staged operations without the fixpoint; the recorded
  /// deltas are picked up by the next Fixpoint(). For callers that batch
  /// across several transactions (e.g. cluster message delivery).
  util::Status CommitNoFixpoint();
  /// Discards the staged operations; the transaction becomes inert.
  void Abort();

  /// False after Commit()/Abort().
  bool active() const { return !done_; }
  size_t pending_ops() const { return ops_.size(); }

 private:
  friend class Workspace;

  struct Op {
    enum class Kind {
      kAddFact,
      kRemoveFact,
      kAddRule,
      kRemoveRule,
      kAddRuleText,
      kAddFactText,
      kAddProgram,
      kSay,
    };
    Kind kind = Kind::kAddFact;
    std::string pred;       ///< kAddFact/kRemoveFact; destination for kSay
    Tuple tuple;            ///< kAddFact/kRemoveFact
    Rule rule;              ///< kAddRule/kRemoveRule
    std::string text;       ///< text-bearing ops
    std::string principal;  ///< me-resolution override ("" = workspace's)
  };

  explicit Transaction(Workspace* workspace) : workspace_(workspace) {}

  /// Applies ops in order with rollback of facts/rules on failure.
  util::Status Apply();

  Workspace* workspace_;
  std::vector<Op> ops_;
  bool done_ = false;
};

/// A workspace is a database instance: predicate definitions, EDB facts and
/// a set of active rules (§3.1). Fixpoint() recomputes the derived state
/// bottom-up (semi-naive, stratified), then runs the meta-programming loop —
/// code values derived into `active` are installed as new rules and the
/// fixpoint repeats — and finally checks schema constraints, failing with
/// kConstraintViolation like LogicBlox's fail() (§3.2).
///
/// ## Session model
///
/// The public API is built around two long-lived handle types, separating
/// per-request evaluation from policy-state management (the SAFE/GEM split):
///
///  - the READ path: `Prepare()` compiles an atom pattern once into a
///    `PreparedQuery`; its `Run()/Count()/Exists()` touch no lexer or
///    parser. The legacy one-shot `Query()`/`Count()` string calls remain
///    as thin shims that prepare-and-run per call.
///  - the WRITE path: `Begin()` opens a `Transaction`; staged mutations
///    apply on `Commit()` followed by exactly one Fixpoint(). One-shot
///    `AddFact()`/`RemoveFact()`/`Load()` remain for interactive use.
///
/// The workspace tracks per-relation EDB deltas between fixpoints. When a
/// Fixpoint() finds that only EDB insertions happened since the last
/// successful run — no rule installs/removals, no constraint or scheme
/// churn, no fact retraction, and the inserted relations cannot reach a
/// negated or aggregated body literal — it seeds semi-naive evaluation from
/// those deltas on top of the existing store instead of clearing and
/// rebuilding it. All other mutations fall back to the full rebuild, so
/// results are always identical to a from-scratch evaluation (the
/// differential tests in tests/datalog_workspace_test.cc enforce this
/// against the naive evaluator).
///
/// The `me` keyword in loaded programs resolves to the workspace principal
/// (or to an explicit principal via the *As APIs, which is how the §9 demo
/// emulates multiple principals inside one shared workspace). Each installed
/// rule R is recorded in the meta relations `active(R)` and `owner(R,U)`.
class Workspace {
 public:
  struct Options {
    /// The principal that `me` denotes.
    std::string principal = "local";
    /// Worker threads for intra-stratum rule evaluation. 0 = one per
    /// hardware thread (std::thread::hardware_concurrency); 1 = the
    /// sequential engine. With threads > 1, parallel-safe rules evaluate
    /// concurrently against a frozen store snapshot, and one merge on the
    /// calling thread replays their output in a fixed order into the
    /// single-partition store, so Workspace dumps are byte-identical to
    /// sequential evaluation (see README "Parallel evaluation"). Provenance
    /// tracking and naive_eval force sequential.
    unsigned threads = 0;
    /// Codegen (active-rule installation) iterations per Fixpoint().
    int max_codegen_rounds = 64;
    /// Evaluator budgets (diverging-program guards).
    Evaluator::Limits limits;
    /// Disable semi-naive deltas (naive fixpoint) — ablation only. Also
    /// disables the delta-aware fixpoint path.
    bool naive_eval = false;
    /// Record a derivation witness per derived tuple (§7's provenance
    /// extension); query via Explain(). Off by default (memory cost).
    /// Disables the delta-aware fixpoint path (witnesses are rebuilt
    /// per full evaluation).
    bool track_provenance = false;
    /// Static analysis at program ingress (Load/LoadAs and
    /// Transaction::AddProgram). kWarn (default) lints every routed
    /// program and collects the report in last_lint() without changing
    /// behavior; kEnforce additionally rejects programs with lint
    /// *errors* (the same programs CompileRule/Stratify would reject,
    /// but diagnosed before any rule installs); kOff skips the analysis
    /// entirely. AddRule/AddFact bypass the linter — they carry single
    /// clauses, not programs.
    enum class LintMode { kOff, kWarn, kEnforce };
    LintMode lint = LintMode::kWarn;
  };

  Workspace() : Workspace(Options()) {}
  explicit Workspace(Options options);

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  const Options& options() const { return options_; }
  const std::string& principal() const { return options_.principal; }

  // --- Session API ---------------------------------------------------------

  /// Compiles an atom pattern ("access(P,O,read)") into a reusable handle.
  /// The handle stays valid for the lifetime of the workspace.
  util::Result<PreparedQuery> Prepare(std::string_view atom_text);

  /// Opens a batch mutation; see Transaction.
  Transaction Begin() { return Transaction(this); }

  // --- One-shot mutation API (shims kept during migration) -----------------

  /// Parses and installs a program (rules, facts, constraints).
  util::Status Load(std::string_view program);
  /// Same, with `me` resolved to `principal` (shared-workspace emulation).
  util::Status LoadAs(const std::string& principal, std::string_view program);

  /// Installs one rule (multi-head rules are split). Duplicate rules
  /// (by canonical form) are no-ops.
  util::Status AddRule(const Rule& rule);
  util::Status AddRuleAs(const std::string& principal, const Rule& rule);
  util::Status AddRuleText(std::string_view text);

  /// Retracts a rule by canonical form; derived consequences disappear at
  /// the next Fixpoint(). Returns kNotFound if absent.
  util::Status RemoveRule(const Rule& rule);

  /// EDB fact manipulation. Unknown predicates are declared with the
  /// tuple's arity.
  util::Status AddFact(const std::string& pred, Tuple tuple);
  util::Status RemoveFact(const std::string& pred, const Tuple& tuple);
  /// Parses "p(a,b). q(1)." style fact text (me-resolved).
  util::Status AddFactText(std::string_view text);
  util::Status AddFactTextAs(const std::string& principal,
                             std::string_view text);

  util::Status AddConstraint(const Constraint& constraint);

  /// Removes all constraints carrying this label (e.g. "exp3"), including
  /// their hidden auxiliary rules. Used when reconfiguring authentication
  /// schemes at runtime. Returns kNotFound if no constraint matched.
  util::Status RemoveConstraintsByLabel(const std::string& label);

  /// Registers a builtin predicate (see BuiltinDef for mode strings).
  void RegisterBuiltin(const std::string& name, size_t arity,
                       std::vector<std::string> modes, BuiltinFn fn);

  /// Ensures a predicate exists (declared relations appear in pname).
  util::Status EnsurePredicate(const std::string& name, size_t arity,
                               bool partitioned = false);

  /// Recomputes derived state; runs codegen to quiescence; checks
  /// constraints. On violation returns kConstraintViolation and records
  /// details in violations(). Takes the delta-aware path when eligible
  /// (see the class comment); last_fixpoint_incremental() reports which
  /// path ran.
  util::Status Fixpoint();

  // --- One-shot query API (shims over Prepare) -----------------------------

  /// Matches an atom pattern ("access(P,O,read)") against the current
  /// (post-Fixpoint) state; returns the matching stored tuples.
  util::Result<std::vector<Tuple>> Query(std::string_view atom_text);
  /// Convenience: number of matches (no result materialization).
  util::Result<size_t> Count(std::string_view atom_text);

  /// Renders derivation trees for every tuple matching the atom pattern
  /// (requires Options::track_provenance and a prior Fixpoint()). This is
  /// the §7 provenance extension: chains of trust become inspectable.
  util::Result<std::string> Explain(std::string_view atom_text);
  const ProvenanceStore& provenance() const { return provenance_; }

  const Relation* GetRelation(const std::string& name) const;
  const Catalog& catalog() const { return catalog_; }
  BuiltinRegistry* builtins() { return &builtins_; }
  /// The workspace's value pool: every relation (EDB, store, deltas)
  /// interns into it, so ids are comparable engine-wide.
  ValuePool* pool() { return &pool_; }
  const ValuePool& pool() const { return pool_; }

  /// Installed rules in install order.
  std::vector<const Rule*> rules() const;
  /// True if a rule with this canonical form is installed.
  bool HasRule(const std::string& canon) const;

  /// Constraint-violation report from the last Fixpoint().
  const std::vector<std::string>& violations() const { return violations_; }

  /// Hook invoked for every installed rule (used by meta::Reflector).
  /// Hidden engine predicates (aux constraint rules) do not trigger it.
  using InstallHook = std::function<void(const Rule& rule, int rule_id)>;
  void SetInstallHook(InstallHook hook) { install_hook_ = std::move(hook); }

  /// Hook invoked when a rule is retracted via RemoveRule.
  using RemoveHook = std::function<void(const Rule& rule)>;
  void SetRemoveHook(RemoveHook hook) { remove_hook_ = std::move(hook); }

  /// Number of fixpoint iterations the last Fixpoint() used (codegen
  /// rounds); exposed for tests and benchmarks.
  int last_codegen_rounds() const { return last_codegen_rounds_; }

  /// True if the last Fixpoint() round ran the delta-aware path (store
  /// seeded from recorded EDB deltas, no rebuild). Exposed for tests and
  /// benchmarks.
  bool last_fixpoint_incremental() const {
    return last_fixpoint_incremental_;
  }

  // --- Observability --------------------------------------------------------

  /// The workspace-owned metrics registry, never null: the storage of
  /// every counter of the node. Other layers resolve their handles here
  /// when they are constructed, so one DumpMetrics() covers the node.
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Attaches a span tracer (not owned; pass nullptr to detach). Fixpoint,
  /// stratum and rule spans are emitted while attached.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Prometheus-style text exposition of every registered metric, with
  /// per-relation row-count gauges refreshed from the current store.
  std::string DumpMetrics();

  /// EXPLAIN over every installed rule (install order; hidden constraint
  /// aux rules included — they execute like any other rule): compiled
  /// literal schedules, static probe masks, and measured selectivities.
  /// Served at /explainz by the HTTP exporter.
  std::string ExplainRules(ExplainFormat format = ExplainFormat::kText);

  /// Lints the installed rule set (visible rules + constraints) against
  /// the live store: the full static analysis plus L050 join-order
  /// smells measured against current relation cardinalities. Hidden
  /// constraint aux rules are skipped (their shapes are synthesized).
  /// Served at /lintz by the HTTP exporter.
  LintReport LintRules() const;

  /// The report from the most recent linted program ingress (Load /
  /// LoadAs / Transaction::AddProgram). Empty when Options::lint is kOff
  /// or nothing was loaded yet.
  const LintReport& last_lint() const { return last_lint_; }

  /// Name-sorted (relation, row count) snapshot of the visible store
  /// (post-Fixpoint state), for /statusz.
  std::vector<std::pair<std::string, size_t>> RelationRowCounts() const;

 private:
  friend class PreparedQuery;
  friend class Transaction;

  struct InstalledRule {
    Rule rule;
    std::string canon;
    int id = 0;
    std::string owner;
    bool hidden = false;  // constraint aux rules
    std::unique_ptr<CompiledRule> compiled;
  };

  struct CompiledConstraint {
    Constraint source;
    std::string label;
    std::string display;
    /// Violation queries: constraint violated iff any has a solution.
    std::vector<std::unique_ptr<CompiledRule>> fail_rules;
    /// Canonical forms of the hidden aux rules this constraint installed.
    std::vector<std::string> aux_canons;
  };

  util::Status LoadClauses(const std::string& principal,
                           std::string_view program);
  /// Shared program ingress for Load and Transaction::AddProgram: routes
  /// `program` with RouteProgram, lints the routed view, and dispatches —
  /// single-head rules (and fact clauses) to `on_rule`, raw
  /// `fail() <- body.` constraints to `on_fail_constraint`, `lhs -> rhs.`
  /// constraints to `on_constraint`.
  util::Status RouteProgramClauses(
      const std::string& principal, std::string_view program,
      const std::function<util::Status(Rule)>& on_rule,
      const std::function<util::Status(Constraint)>& on_fail_constraint,
      const std::function<util::Status(Constraint)>& on_constraint);
  util::Status InstallResolved(Rule rule, const std::string& owner,
                               bool hidden, bool from_activation = false);
  /// Insert target for InstallFactRule: null means AddFact; Transaction
  /// substitutes an undo-recording sink.
  using FactSink =
      std::function<util::Status(const std::string& pred, Tuple tuple)>;
  util::Status InstallFactRule(const Rule& rule, const std::string& owner,
                               bool from_activation = false,
                               const FactSink* sink = nullptr);
  util::Status CompileConstraint(Constraint constraint);
  util::Status DeclareAtomPredicate(const Atom& atom);
  util::Status PrepareStore();
  util::Status FixpointImpl();
  /// Runs the installed rules to fixpoint: a full run without `seed`, a
  /// delta run extending the store from `seed` otherwise (see
  /// Evaluator::Run).
  util::Status RunRules(
      std::optional<std::map<std::string, Relation>> seed = std::nullopt);
  util::Result<int> ScanAndInstallActive();
  void CheckConstraints();

  /// Bookkeeping for the delta-aware fixpoint: every EDB insertion lands
  /// here (already interned — the API edge interns exactly once); a
  /// successful (or constraint-rejecting) Fixpoint() consumes it.
  void RecordEdbInsert(const std::string& pred, const IdTuple& ids,
                       bool inserted);
  /// False when this workspace's options rule the delta path out entirely
  /// (no point logging deltas then).
  bool DeltaTrackingEnabled() const {
    return !options_.naive_eval && !options_.track_provenance;
  }
  /// Flags rule-set churn (forces the next Fixpoint() onto the full path)
  /// and drops the cached stratification.
  void MarkRulesChanged();
  /// Stratification of the installed rules, cached across delta fixpoints.
  util::Result<const Stratification*> CurrentStratification();
  /// True when the pending deltas are EDB-only and cannot reach a negated
  /// or aggregated body literal (so additive semi-naive is exact).
  bool DeltaFixpointEligible() const;

  Options options_;
  Catalog catalog_;
  BuiltinRegistry builtins_;
  /// Shared worker-pool slot handed to every Evaluator this workspace
  /// constructs: threads spawn on the first parallel round and are
  /// reused across fixpoints (see EvalWorkerPoolHandle).
  EvalWorkerPoolHandle worker_pool_;
  ValuePool pool_;       // interned values; must outlive the stores below
  RelationStore edb_;    // explicit facts
  RelationStore store_;  // visible state (EDB + derived); rebuilt by full
                         // fixpoints, extended in place by delta fixpoints
  std::vector<std::unique_ptr<InstalledRule>> rules_;
  std::map<std::string, InstalledRule*> rules_by_canon_;
  std::vector<std::unique_ptr<CompiledConstraint>> constraints_;
  ProvenanceStore provenance_;
  std::vector<std::string> violations_;
  InstallHook install_hook_;
  RemoveHook remove_hook_;
  LintReport last_lint_;  ///< from the most recent program ingress
  int next_rule_id_ = 1;
  int next_hidden_id_ = 1;
  int next_constraint_id_ = 0;
  int last_codegen_rounds_ = 0;

  /// Delta-aware fixpoint state.
  std::unique_ptr<Stratification> strat_cache_;
  std::map<std::string, Relation> edb_delta_;  ///< inserts since last run
  bool store_valid_ = false;   ///< store_ reflects a completed Fixpoint()
  bool rules_dirty_ = true;    ///< rule/constraint churn since last run
  bool edb_removed_ = false;   ///< a fact retraction since last run
  bool last_fixpoint_incremental_ = false;

  /// Observability. The handles below are registry-owned, resolved once
  /// at construction.
  std::unique_ptr<obs::MetricsRegistry> metrics_ =
      std::make_unique<obs::MetricsRegistry>();
  std::unique_ptr<EvalCounters> eval_counters_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* fixpoints_full_ = nullptr;
  obs::Counter* fixpoints_delta_ = nullptr;
  obs::Histogram* fixpoint_latency_us_ = nullptr;
  obs::Histogram* commit_latency_us_ = nullptr;
};

}  // namespace lbtrust::datalog

#endif  // LBTRUST_DATALOG_WORKSPACE_H_
