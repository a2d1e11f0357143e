#ifndef LBTRUST_DATALOG_EVAL_H_
#define LBTRUST_DATALOG_EVAL_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/analysis.h"
#include "datalog/ast.h"
#include "datalog/builtins.h"
#include "datalog/plan.h"
#include "datalog/provenance.h"
#include "datalog/relation.h"
#include "datalog/unify.h"
#include "datalog/value_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace lbtrust::datalog {

/// Name -> Relation map holding the visible database state. Hash-keyed
/// (rule evaluation resolves relations by name only on the first touch per
/// store generation — see CompiledLiteral's cache); every relation interns
/// into the store's pool so ids are comparable across relations. Relation
/// pointers are stable until Clear(), which bumps the generation so cached
/// pointers self-invalidate.
class RelationStore {
 public:
  explicit RelationStore(ValuePool* pool = nullptr)
      : pool_(pool != nullptr ? pool : ValuePool::Default()),
        generation_(NextGeneration()) {}

  Relation* GetOrCreate(const std::string& name, size_t arity);
  Relation* Get(const std::string& name);
  const Relation* Get(const std::string& name) const;
  std::unordered_map<std::string, Relation>& relations() { return rels_; }
  const std::unordered_map<std::string, Relation>& relations() const {
    return rels_;
  }

  /// Drops every relation and invalidates cached Relation pointers.
  void Clear() {
    rels_.clear();
    generation_ = NextGeneration();
  }

  ValuePool* pool() const { return pool_; }
  /// Unique across all stores and all Clear() epochs of one store.
  uint64_t generation() const { return generation_; }

 private:
  static uint64_t NextGeneration();

  ValuePool* pool_;
  uint64_t generation_;
  std::unordered_map<std::string, Relation> rels_;
};

/// One column of a compiled literal or head: the planner's classification
/// (see PlanColumn) plus what evaluation needs — the term itself and, for
/// kConst, its precomputed value.
struct CompiledArg : PlanColumn {
  Value constant;  ///< kConst
  Term term;       ///< kPattern / kExpr (also kVar, for unify)

  /// kConst probe cache: `constant` interned once per pool (CompileRule is
  /// pool-agnostic; the evaluator fills this on first use and re-validates
  /// against the pool *generation* — never reused, unlike addresses — so a
  /// compiled rule stays usable with any workspace while its steady-state
  /// probes never re-hash the constant).
  mutable ValueId const_id;
  mutable uint64_t const_pool_gen = 0;
};

struct CompiledLiteral {
  using Kind = PlanLiteral::Kind;
  Kind kind = Kind::kRelation;
  std::string pred;
  bool negated = false;         ///< for kBuiltin: negated builtin
  std::vector<CompiledArg> cols;
  const BuiltinDef* builtin = nullptr;

  /// Relation-resolution cache: avoids the per-evaluation string-keyed map
  /// walk. Valid while (store, generation) match; RelationStore::Clear()
  /// bumps the generation, so stale pointers are never dereferenced.
  mutable const RelationStore* cached_store = nullptr;
  mutable uint64_t cached_gen = 0;
  mutable Relation* cached_rel = nullptr;

  /// Selectivity counters of a relation or negation literal, set by
  /// InstrumentRule.
  obs::Counter* probes = nullptr;
  obs::Counter* hits = nullptr;
};

/// A rule compiled against a builtin registry: the lowering of its
/// RulePlan (variables interned to slots, terms classified, body literal
/// evaluation orders chosen greedily by boundness — the engine's stand-in
/// for LogicBlox's cost-based optimizer; ablated in bench_engine).
struct CompiledRule {
  Rule source;                  ///< single-head, me-resolved
  /// The installed rule's id (visible rules count up from 1, hidden ones
  /// down from -1); 0 for a prepared query, so that every query of one
  /// head shares one set of series however many handles are prepared.
  int id = 0;
  VarTable vars;
  std::vector<CompiledLiteral> body;
  std::vector<CompiledArg> head_cols;
  std::string head_pred;
  std::optional<Aggregate> agg;
  int agg_input_slot = -1;
  int agg_result_slot = -1;

  std::vector<int> order_full;               ///< literal visit order
  std::vector<uint64_t> masks_full;          ///< plan's masks along order_full
  std::map<int, std::vector<int>> order_delta;  ///< per delta position
  std::vector<int> relation_positions;       ///< body idx of kRelation lits

  /// True when evaluating this rule touches nothing but the interned id
  /// plane: no aggregate, every body literal is a relation or negation,
  /// and every column (body and head) is a constant or a plain variable.
  /// Such rules never intern into the pool, never unify patterns, and
  /// never materialize Values — so any number of workers can evaluate
  /// them concurrently against a frozen store. Rules with builtins,
  /// equality, patterns/expressions or aggregates run sequentially in the
  /// merge phase instead.
  bool parallel_safe = false;

  /// For parallel-safe rules: the probe masks each evaluation order needs,
  /// derived statically from the schedule (a column is bound at position
  /// `oi` iff it is a constant or bound by an earlier literal — for
  /// const/var-only rules runtime boundness equals scheduled boundness).
  /// The parallel evaluator pre-builds exactly these indexes before
  /// freezing the round's relations.
  struct OrderProbes {
    struct Need {
      int body_idx;    ///< literal whose relation needs the index
      uint64_t mask;   ///< probe mask at its scheduled position
    };
    std::vector<Need> index_masks;
    /// order[0] is a relation literal, so worker chunks can partition its
    /// row enumeration (delta scans and round-0 leading scans).
    bool partition_first = false;
  };
  OrderProbes probes_full;
  std::map<int, OrderProbes> probes_delta;  ///< keyed like order_delta

  /// Per-rule counters, set by InstrumentRule; EXPLAIN reads them.
  struct Counters {
    obs::Counter* evals = nullptr;
    obs::Counter* derived = nullptr;
    obs::Counter* probes = nullptr;
    obs::Counter* eval_us = nullptr;  ///< cumulative evaluation wall time
  } counters;
};

/// Compiles a single-head rule by lowering its PlanRule plan. Fails with
/// the plan's status when the plan is refused (kUnsafeProgram when no
/// evaluation order can bind every head variable / negation / builtin
/// input, kTypeError past the column cap or on a builtin's arity).
util::Result<std::unique_ptr<CompiledRule>> CompileRule(
    const Rule& rule, const BuiltinRegistry& builtins);

/// Names and resolves `rule`'s per-rule and per-relation counters in
/// `metrics`, once per rule, when it is installed.
void InstrumentRule(CompiledRule* rule, obs::MetricsRegistry* metrics);

/// The evaluator-wide counters, resolved once per workspace and shared by
/// every Evaluator it constructs: tuples derived, rounds, and the rows each
/// round's delta carried.
struct EvalCounters {
  explicit EvalCounters(obs::MetricsRegistry* metrics);

  obs::Counter* tuples_derived;
  obs::Counter* rounds;
  obs::Histogram* delta_rows;
};

class EvalWorkerPool;

/// Opaque owner handle for a worker pool (the type lives in eval.cc).
/// A Workspace keeps one of these and passes its address to every
/// Evaluator it constructs, so the pool's threads are spawned once and
/// reused across fixpoints instead of per-Evaluator.
struct EvalWorkerPoolDeleter {
  void operator()(EvalWorkerPool* pool) const;
};
using EvalWorkerPoolHandle =
    std::unique_ptr<EvalWorkerPool, EvalWorkerPoolDeleter>;

/// Bottom-up semi-naive stratified evaluator over a RelationStore.
///
/// ## Parallel evaluation (threads > 1)
///
/// Within each stratum round, parallel-safe rules (CompiledRule::
/// parallel_safe) are evaluated by a worker pool against a frozen
/// read-only view of the store: relations are resolved, constants
/// interned and the statically known probe-mask indexes built *before*
/// the round's threads start, then every reachable relation is
/// FreezeForRead()-locked, so workers touch no shared mutable state at
/// all. Each task's leading literal enumeration is partitioned into row
/// ranges (chunks); workers emit pre-hashed head rows — already filtered
/// against the frozen full relation — into per-chunk buffers. The calling
/// thread then merges: it replays the buffers in deterministic (task,
/// chunk, row) order through the same insert step the sequential path
/// uses (deduplicating full-store insert, tuple budget, delta appends),
/// while non-safe rules (builtins, patterns, aggregates) evaluate inline
/// at their task position. The fixpoint SET is identical to sequential
/// evaluation (rounds are confluent; a consequence skipped under the
/// frozen view is derived from the next round's delta), so
/// Workspace::Dump — which sorts rows — is byte-identical across thread
/// counts. threads == 1 runs the sequential code path; provenance tracking
/// and the naive ablation force it.
class Evaluator {
 public:
  struct Limits {
    size_t max_rounds = 100000;
    size_t max_tuples = 10000000;
  };

  /// `provenance` may be null; when set, Run() records one derivation
  /// witness per newly derived tuple (relational premises only).
  /// `threads` is the worker count for intra-stratum rule parallelism
  /// (1 = sequential; callers resolve 0/auto before constructing).
  /// `shared_pool` may point at a caller-owned worker-pool slot (see
  /// EvalWorkerPoolHandle); when null, the evaluator owns a private pool
  /// for its own lifetime. Either way the pool is created lazily, sized
  /// to the largest parallel round actually seen, and never spawns more
  /// than `threads - 1` workers.
  /// `tracer` (nullable) receives per-stratum and per-rule spans.
  Evaluator(const BuiltinRegistry* builtins, RelationStore* store,
            ProvenanceStore* provenance = nullptr, unsigned threads = 1,
            EvalWorkerPoolHandle* shared_pool = nullptr,
            obs::Tracer* tracer = nullptr);
  ~Evaluator();

  /// Runs all rules to fixpoint, counting rounds and deltas into
  /// `counters` and each rule's probes, hits and tuples derived into its
  /// own handles.
  ///
  /// Without a `seed` this is a full run: the store must already hold the
  /// EDB facts (including facts of derived predicates), and round 0
  /// evaluates every rule in full. `naive` disables the semi-naive delta
  /// optimization of a full run (for the ablation benchmark).
  ///
  /// With a `seed` (newly inserted EDB tuples, already present in the
  /// store) this is a delta run: the store must hold a complete fixpoint
  /// of the rules minus those tuples, and round 0 joins each rule against
  /// the changes so far, so the store gains every additional consequence.
  /// Sound only for additive change sets that cannot reach a negated or
  /// aggregated body literal — the caller (Workspace::Fixpoint) checks
  /// eligibility.
  util::Status Run(const std::vector<CompiledRule*>& rules,
                   const Stratification& strat, const Limits& limits,
                   const EvalCounters& counters,
                   std::optional<std::map<std::string, Relation>> seed =
                       std::nullopt,
                   bool naive = false);

  /// Evaluates a body-only query (constraint checks, Workspace::Query),
  /// invoking `cb` once per solution with the rule's bindings.
  util::Status EvalQuery(CompiledRule* rule,
                         const std::function<void(const Bindings&)>& cb);

  /// Like EvalQuery, but `cb` returns false to stop the enumeration early
  /// (PreparedQuery::Exists / bounded scans).
  util::Status EvalQueryUntil(CompiledRule* rule,
                              const std::function<bool(const Bindings&)>& cb);

 private:
  struct ExecContext {
    CompiledRule* rule = nullptr;
    const std::vector<int>* order = nullptr;
    int delta_pos = -1;
    Relation* delta_rel = nullptr;
    Bindings bindings;
    std::function<util::Status()> on_solution;
    /// Per-order-position probe result scratch, reused across the rows a
    /// position enumerates (a position is never re-entered concurrently).
    std::vector<std::vector<uint32_t>> probe_scratch;
    /// When provenance is tracked: the relational rows matched so far.
    std::vector<std::pair<std::string, Tuple>>* premises = nullptr;
    /// Worker-chunk row-range restriction for the first order position
    /// (the partitioned leading scan). Inactive unless first_restricted.
    bool first_restricted = false;
    size_t first_begin = 0;
    size_t first_end = 0;
    /// Per-body-literal probe tallies (indexed by body position; null =
    /// not collecting). Plain counters owned by the single thread running
    /// this context; folded into registry counters after the rule
    /// evaluation completes, so the probe loop never touches an atomic.
    uint64_t* probe_tally = nullptr;
    uint64_t* hit_tally = nullptr;
  };

  /// One (rule, delta position) evaluation within a stratum round.
  struct RoundTask {
    CompiledRule* rule = nullptr;
    int pos = -1;                  ///< delta position, -1 for full order
    Relation* delta_rel = nullptr;
  };

  /// Worker output: arity-strided head rows plus their primary-set
  /// hashes, already filtered against the frozen full relation.
  struct EmitBuffer {
    std::vector<ValueId> rows;
    std::vector<uint64_t> hashes;
    /// Chunk-local probe tallies, sized to the rule's body; summed by the
    /// merge so workers never share counters.
    std::vector<uint64_t> probes;
    std::vector<uint64_t> hits;
    /// Wall time this chunk's evaluation took on its worker; summed at
    /// fold time into the rule's cumulative eval-time counter.
    uint64_t eval_us = 0;
    void clear() {
      rows.clear();
      hashes.clear();
      probes.clear();
      hits.clear();
      eval_us = 0;
    }
  };

  /// Cached by-name relation resolution (see CompiledLiteral).
  Relation* ResolveRelation(const CompiledLiteral& lit, size_t arity);

  util::Status Step(ExecContext* ctx, size_t oi);
  util::Status EvalRelation(ExecContext* ctx, size_t oi,
                            const CompiledLiteral& lit);
  util::Status EvalNegation(ExecContext* ctx, size_t oi,
                            const CompiledLiteral& lit);
  util::Status EvalEquality(ExecContext* ctx, size_t oi,
                            const CompiledLiteral& lit);
  util::Status EvalBuiltin(ExecContext* ctx, size_t oi,
                           const CompiledLiteral& lit);

  /// `emit` receives the head row as rule->head_cols.size() interned ids
  /// (valid only for the duration of the call). `probe_tally`/`hit_tally`
  /// are per-body-literal arrays the evaluation accumulates probe
  /// statistics into.
  util::Status EvalRuleOnce(
      CompiledRule* rule, int delta_pos, Relation* delta_rel,
      const std::function<util::Status(const ValueId*)>& emit,
      uint64_t* probe_tally, uint64_t* hit_tally);

  /// Shared rule-evaluation step of every round of Run(): resolves the
  /// head relation once (not per emitted tuple), evaluates the rule
  /// (delta-seeded when pos >= 0) and hands every emission — recording
  /// provenance when enabled — to the round's one insert step (HeadWriter
  /// in eval.cc: full-store dedup, tuple budget, appends to `next_delta`
  /// and, when non-null, `stratum_new`).
  util::Status RunRuleInto(CompiledRule* rule, int pos, Relation* delta_rel,
                           const Limits& limits, size_t* total_tuples,
                           std::map<std::string, Relation>* next_delta,
                           std::map<std::string, Relation>* stratum_new);

  /// Executes one stratum round's tasks. With threads_ == 1 (or when
  /// nothing in the round is parallel-safe) this is exactly the classic
  /// sequential loop over RunRuleInto; otherwise parallel-safe tasks run
  /// the frozen-view worker path (see the class comment) and the merge
  /// applies all results in deterministic task order.
  util::Status RunRound(const std::vector<RoundTask>& tasks,
                        const Limits& limits, size_t* total_tuples,
                        std::map<std::string, Relation>* next_delta,
                        std::map<std::string, Relation>* stratum_new);

  /// Worker body: evaluates `rule` (delta-seeded when pos >= 0) with the
  /// leading literal restricted to rows [begin, end) when `restricted`,
  /// buffering emissions (pre-hashed, pre-filtered against `full`).
  util::Status EvalRuleChunk(CompiledRule* rule, int pos, Relation* delta_rel,
                             bool restricted, size_t begin, size_t end,
                             const Limits& limits, Relation* full,
                             EmitBuffer* buf);

  /// Folds one rule evaluation's plain tallies into the rule's counters:
  /// per-relation probes/hits (selectivity feed), per-rule totals, and
  /// `elapsed_us` of evaluation wall time (the EXPLAIN cost column).
  void FoldRuleMetrics(const CompiledRule* rule, uint64_t derived,
                       const uint64_t* probe_tally, const uint64_t* hit_tally,
                       uint64_t elapsed_us);
  /// FoldRuleMetrics over one task's emit_bufs_[chunk_begin, chunk_end).
  void FoldChunkMetrics(const CompiledRule* rule, uint64_t derived,
                        size_t chunk_begin, size_t chunk_end);
  /// Observes the row count of every relation in `delta` on the delta-size
  /// histogram and counts one evaluation round.
  void RecordRoundDelta(const std::map<std::string, Relation>& delta);

  const BuiltinRegistry* builtins_;
  RelationStore* store_;
  ProvenanceStore* provenance_;
  ValuePool* pool_;
  unsigned threads_;
  /// The counters Run() was handed, for the duration of the run.
  const EvalCounters* counters_ = nullptr;
  obs::Tracer* tracer_;
  /// Sequential-path tally scratch (RunRuleInto), reused across calls.
  std::vector<uint64_t> tally_probes_;
  std::vector<uint64_t> tally_hits_;
  /// Worker-pool slot: points at the caller's shared slot when one was
  /// provided (pool reused across fixpoints), else at owned_workers_.
  /// Populated lazily on the first round with > 1 chunk and grown to the
  /// largest concurrent chunk count seen (never beyond threads_ - 1).
  EvalWorkerPoolHandle* workers_slot_;
  EvalWorkerPoolHandle owned_workers_;
  /// Per-chunk emission buffers, recycled across rounds.
  std::vector<EmitBuffer> emit_bufs_;
  /// Set while a rule is emitting (read by Run's insertion callback; only
  /// touched when provenance is tracked, which forces sequential mode).
  const CompiledRule* emitting_rule_ = nullptr;
  const std::vector<std::pair<std::string, Tuple>>* emitting_premises_ =
      nullptr;
};

}  // namespace lbtrust::datalog

#endif  // LBTRUST_DATALOG_EVAL_H_
