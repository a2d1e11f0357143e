#include "datalog/eval.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "datalog/pretty.h"
#include "util/strings.h"

namespace lbtrust::datalog {

using util::Result;
using util::Status;

/// A small claim-based worker pool for intra-round rule parallelism.
/// `Run(n, body)` executes body(0..n-1) with the calling thread
/// participating: items are claimed with an atomic counter, so a worker
/// that the scheduler starves simply claims nothing and the caller drains
/// the queue itself (important when threads oversubscribe the machine).
/// Each Run publishes a fresh shared state block; stale workers that wake
/// late claim from their old, exhausted block and then re-wait, so a
/// late wakeup can never execute a new round's items with an old body.
class EvalWorkerPool {
 public:
  explicit EvalWorkerPool(unsigned workers) { EnsureWorkers(workers); }

  /// Grows the pool to at least `workers` threads (called between
  /// rounds, never concurrently with Run). New threads start in the
  /// wait loop and pick up the next round normally.
  void EnsureWorkers(unsigned workers) {
    threads_.reserve(workers);
    while (threads_.size() < workers) {
      threads_.emplace_back([this] { ThreadMain(); });
    }
  }

  size_t worker_count() const { return threads_.size(); }

  ~EvalWorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void Run(size_t nitems, const std::function<void(size_t)>& body) {
    auto state = std::make_shared<RoundState>();
    state->nitems = nitems;
    state->body = &body;
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = state;
      ++epoch_;
    }
    epoch_fast_.fetch_add(1, std::memory_order_release);
    cv_.notify_all();
    Work(*state);
    // Claims are exhausted; wait for items still running on workers. The
    // last done-increment happens-before the acquire load, so the caller
    // observes every buffer write the workers made.
    size_t spins = 0;
    while (state->done.load(std::memory_order_acquire) != nitems) {
      if (++spins > 64) std::this_thread::yield();
    }
    std::lock_guard<std::mutex> lock(mu_);
    current_.reset();
  }

 private:
  struct RoundState {
    size_t nitems = 0;
    const std::function<void(size_t)>* body = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };

  static void Work(RoundState& s) {
    for (;;) {
      size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s.nitems) return;
      (*s.body)(i);
      s.done.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  void ThreadMain() {
    uint64_t seen = 0;
    for (;;) {
      // Bounded spin before sleeping: rounds arrive back-to-back during a
      // fixpoint, so catching the next epoch without a futex round-trip
      // keeps per-round dispatch latency in the sub-microsecond range on
      // multicore. The periodic yield keeps oversubscribed (fewer cores
      // than threads) machines degrading gracefully instead of burning
      // the merge thread's quantum.
      for (int spin = 0; spin < 4096; ++spin) {
        if (epoch_fast_.load(std::memory_order_acquire) != seen) break;
        if ((spin & 31) == 31) std::this_thread::yield();
      }
      std::shared_ptr<RoundState> state;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return stop_ || (epoch_ != seen && current_ != nullptr);
        });
        if (stop_) return;
        seen = epoch_;
        state = current_;
      }
      Work(*state);
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t epoch_ = 0;
  std::atomic<uint64_t> epoch_fast_{0};
  bool stop_ = false;
  std::shared_ptr<RoundState> current_;
};

void EvalWorkerPoolDeleter::operator()(EvalWorkerPool* pool) const {
  delete pool;
}

EvalCounters::EvalCounters(obs::MetricsRegistry* metrics)
    : tuples_derived(metrics->GetCounter("lbtrust_tuples_derived_total")),
      rounds(metrics->GetCounter("lbtrust_eval_rounds_total")),
      delta_rows(metrics->GetHistogram("lbtrust_fixpoint_delta_rows")) {}

void InstrumentRule(CompiledRule* rule, obs::MetricsRegistry* metrics) {
  const std::string labels =
      util::StrCat("head=\"", obs::LabelEscape(rule->head_pred),
                   "\",rule=\"", rule->id, "\"");
  CompiledRule::Counters& c = rule->counters;
  c.evals = metrics->GetCounter("lbtrust_rule_evals_total", labels);
  c.derived = metrics->GetCounter("lbtrust_rule_tuples_derived_total", labels);
  c.probes = metrics->GetCounter("lbtrust_rule_probes_total", labels);
  c.eval_us = metrics->GetCounter("lbtrust_rule_eval_us_total", labels);
  for (CompiledLiteral& lit : rule->body) {
    if (lit.kind != CompiledLiteral::Kind::kRelation &&
        lit.kind != CompiledLiteral::Kind::kNegation) {
      continue;
    }
    const std::string rel =
        util::StrCat("relation=\"", obs::LabelEscape(lit.pred), "\"");
    lit.probes = metrics->GetCounter("lbtrust_relation_probes_total", rel);
    lit.hits = metrics->GetCounter("lbtrust_relation_probe_hits_total", rel);
  }
}

Evaluator::Evaluator(const BuiltinRegistry* builtins, RelationStore* store,
                     ProvenanceStore* provenance, unsigned threads,
                     EvalWorkerPoolHandle* shared_pool, obs::Tracer* tracer)
    : builtins_(builtins),
      store_(store),
      provenance_(provenance),
      pool_(store->pool()),
      threads_(threads == 0 ? 1 : threads),
      tracer_(tracer),
      workers_slot_(shared_pool != nullptr ? shared_pool : &owned_workers_) {}

Evaluator::~Evaluator() = default;

uint64_t RelationStore::NextGeneration() {
  // Atomic so concurrent workspace construction (one workspace per
  // evaluation thread) can never mint duplicate generations, which would
  // let a stale CompiledLiteral cache validate against a reused address.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Relation* RelationStore::GetOrCreate(const std::string& name, size_t arity) {
  auto it = rels_.find(name);
  if (it == rels_.end()) {
    it = rels_.emplace(name, Relation(arity, pool_)).first;
  }
  return &it->second;
}

Relation* RelationStore::Get(const std::string& name) {
  auto it = rels_.find(name);
  return it == rels_.end() ? nullptr : &it->second;
}

const Relation* RelationStore::Get(const std::string& name) const {
  auto it = rels_.find(name);
  return it == rels_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

namespace {

// Lowers planned columns onto their terms: clones each term and folds
// constant columns (ground terms always evaluate: code stays code,
// arithmetic folds).
std::vector<CompiledArg> LowerCols(const Atom& atom,
                                   std::vector<PlanColumn> planned) {
  std::vector<CompiledArg> cols(planned.size());
  size_t next = 0;
  auto lower = [&](const Term& t) {
    CompiledArg& arg = cols[next];
    static_cast<PlanColumn&>(arg) = std::move(planned[next]);
    ++next;
    arg.term = CloneTerm(t);
    if (arg.kind == CompiledArg::Kind::kConst) {
      Bindings empty;
      VarTable no_vars;
      Result<Value> v = EvalGroundTerm(t, no_vars, empty);
      arg.constant = v.ok() ? *v : Value();
    }
  };
  if (atom.partition) lower(*atom.partition);
  for (const Term& t : atom.args) lower(t);
  return cols;
}

// True when the rule evaluates entirely on the id plane (see the
// CompiledRule::parallel_safe comment).
bool RuleParallelSafe(const CompiledRule& cr) {
  if (cr.agg.has_value()) return false;
  auto cols_safe = [](const std::vector<CompiledArg>& cols) {
    for (const CompiledArg& c : cols) {
      if (c.kind != CompiledArg::Kind::kConst &&
          c.kind != CompiledArg::Kind::kVar) {
        return false;
      }
    }
    return true;
  };
  if (!cols_safe(cr.head_cols)) return false;
  for (const CompiledLiteral& lit : cr.body) {
    if (lit.kind != CompiledLiteral::Kind::kRelation &&
        lit.kind != CompiledLiteral::Kind::kNegation) {
      return false;
    }
    if (!cols_safe(lit.cols)) return false;
  }
  return true;
}

// The index each relation/negation literal needs along a planned order.
// For const/var-only rules the plan's ground mask at a position is exactly
// the runtime probe mask, so the parallel evaluator can pre-build these
// indexes before freezing.
CompiledRule::OrderProbes ComputeOrderProbes(const CompiledRule& cr,
                                             const PlannedOrder& planned) {
  CompiledRule::OrderProbes out;
  for (size_t oi = 0; oi < planned.order.size(); ++oi) {
    const int idx = planned.order[oi];
    const CompiledLiteral& lit = cr.body[static_cast<size_t>(idx)];
    const uint64_t mask = planned.masks[oi];
    const size_t arity = lit.cols.size();
    const uint64_t full =
        arity >= 64 ? ~uint64_t{0} : (uint64_t{1} << arity) - 1;
    if (lit.kind == CompiledLiteral::Kind::kRelation) {
      if (oi == 0) {
        // Leading relation literal: chunks enumerate its row range
        // directly (filtering constants with RowMatchesKey), no index.
        out.partition_first = true;
      } else if (mask != 0 && mask != full) {
        // mask == 0 scans; mask == full short-circuits to ContainsIds.
        out.index_masks.push_back({idx, mask});
      }
    } else if (lit.kind == CompiledLiteral::Kind::kNegation && mask != 0) {
      // Negation probes MatchesIds for any nonzero mask (incl. full).
      out.index_masks.push_back({idx, mask});
    }
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<CompiledRule>> CompileRule(
    const Rule& rule, const BuiltinRegistry& builtins) {
  RulePlan plan = PlanRule(rule, builtins);
  LB_RETURN_IF_ERROR(plan.status);
  std::map<int, PlannedOrder> deltas;  // before lowering moves the plan
  for (int pos : plan.relation_positions) deltas[pos] = plan.DeltaOrder(pos);
  auto cr = std::make_unique<CompiledRule>();
  cr->source = CloneRule(rule);
  cr->agg = rule.aggregate;
  cr->vars = std::move(plan.vars);
  cr->head_pred = rule.heads[0].predicate;
  cr->head_cols = LowerCols(rule.heads[0], std::move(plan.head));
  cr->body.reserve(rule.body.size());
  for (size_t b = 0; b < rule.body.size(); ++b) {
    PlanLiteral& planned = plan.body[b];
    CompiledLiteral cl;
    cl.kind = planned.kind;
    cl.pred = rule.body[b].atom.predicate;
    cl.negated = planned.negated;
    cl.builtin = planned.builtin;
    cl.cols = LowerCols(rule.body[b].atom, std::move(planned.cols));
    cr->body.push_back(std::move(cl));
  }
  cr->parallel_safe = RuleParallelSafe(*cr);
  if (cr->parallel_safe) cr->probes_full = ComputeOrderProbes(*cr, plan.full);
  for (auto& [pos, delta] : deltas) {
    if (cr->parallel_safe) {
      cr->probes_delta[pos] = ComputeOrderProbes(*cr, delta);
    }
    cr->order_delta[pos] = std::move(delta.order);
  }
  cr->relation_positions = std::move(plan.relation_positions);
  cr->order_full = std::move(plan.full.order);
  cr->masks_full = std::move(plan.full.masks);
  cr->agg_input_slot = plan.agg_input_slot;
  cr->agg_result_slot = plan.agg_result_slot;
  return cr;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

// The interned id of a kConst column, computed once per (arg, pool) pair.
ValueId ConstId(const CompiledArg& arg, ValuePool* pool) {
  if (arg.const_pool_gen != pool->generation()) {
    arg.const_id = pool->Intern(arg.constant);
    arg.const_pool_gen = pool->generation();
  }
  return arg.const_id;
}

// Grounds a *head* column. Quoted-code constants are always constructible:
// bound meta-variables substitute in, unbound variables legitimately remain
// variables of the constructed code (e.g. del1's generated rule).
bool TryGroundHeadArg(const CompiledArg& arg, const VarTable& vars,
                      const Bindings& b, Value* out) {
  if (arg.kind == CompiledArg::Kind::kPattern &&
      arg.term.kind == Term::Kind::kConstant) {
    Result<Value> v = EvalGroundTerm(arg.term, vars, b);
    if (!v.ok()) return false;
    *out = std::move(*v);
    return true;
  }
  if (arg.kind == CompiledArg::Kind::kConst) {
    *out = arg.constant;
    return true;
  }
  if (arg.kind == CompiledArg::Kind::kVar) {
    if (!b.IsBound(arg.slot)) return false;
    *out = b.Get(arg.slot);
    return true;
  }
  for (int slot : arg.term_slots) {
    if (!b.IsBound(slot)) return false;
  }
  Result<Value> v = EvalGroundTerm(arg.term, vars, b);
  if (!v.ok()) return false;
  *out = std::move(*v);
  return true;
}

// Id counterpart of TryGroundHeadArg: kConst and kVar columns never
// materialize; only pattern/expression columns take the Value detour.
bool TryGroundHeadArgId(const CompiledArg& arg, const VarTable& vars,
                        const Bindings& b, ValuePool* pool, ValueId* out) {
  if (arg.kind == CompiledArg::Kind::kConst) {
    *out = ConstId(arg, pool);
    return true;
  }
  if (arg.kind == CompiledArg::Kind::kVar) {
    if (!b.IsBound(arg.slot)) return false;
    *out = b.slots[arg.slot];
    return true;
  }
  Value v;
  if (!TryGroundHeadArg(arg, vars, b, &v)) return false;
  *out = pool->Intern(v);
  return true;
}

// Tries to evaluate a column to a ground value under current bindings.
bool TryGroundArg(const CompiledArg& arg, const VarTable& vars,
                  const Bindings& b, Value* out) {
  switch (arg.kind) {
    case CompiledArg::Kind::kConst:
      *out = arg.constant;
      return true;
    case CompiledArg::Kind::kVar:
      if (b.IsBound(arg.slot)) {
        *out = b.Get(arg.slot);
        return true;
      }
      return false;
    case CompiledArg::Kind::kPattern:
    case CompiledArg::Kind::kExpr: {
      for (int slot : arg.term_slots) {
        if (!b.IsBound(slot)) return false;
      }
      Result<Value> v = EvalGroundTerm(arg.term, vars, b);
      if (!v.ok()) return false;
      *out = std::move(*v);
      return true;
    }
  }
  return false;
}

// Id counterpart of TryGroundArg — the probe-key builder. Constants and
// bound variables are pure id reads; patterns and arithmetic evaluate
// through Values. A computed value the pool has never seen is reported as
// kAbsent, NOT interned: no stored row can contain it, so the caller can
// short-circuit, and transient intermediates (e.g. `q(X*2)` probe keys
// that miss) never become workspace-lifetime pool entries.
enum class GroundArg { kUnbound, kGround, kAbsent };

GroundArg TryGroundArgId(const CompiledArg& arg, const VarTable& vars,
                         const Bindings& b, ValuePool* pool, ValueId* out) {
  switch (arg.kind) {
    case CompiledArg::Kind::kConst:
      // Bounded by program size; interning keeps the steady-state probe a
      // cached id read.
      *out = ConstId(arg, pool);
      return GroundArg::kGround;
    case CompiledArg::Kind::kVar:
      if (b.IsBound(arg.slot)) {
        *out = b.slots[arg.slot];
        return GroundArg::kGround;
      }
      return GroundArg::kUnbound;
    case CompiledArg::Kind::kPattern:
    case CompiledArg::Kind::kExpr: {
      for (int slot : arg.term_slots) {
        if (!b.IsBound(slot)) return GroundArg::kUnbound;
      }
      Result<Value> v = EvalGroundTerm(arg.term, vars, b);
      if (!v.ok()) return GroundArg::kUnbound;
      return pool->Find(*v, out) ? GroundArg::kGround : GroundArg::kAbsent;
    }
  }
  return GroundArg::kUnbound;
}

}  // namespace

Relation* Evaluator::ResolveRelation(const CompiledLiteral& lit,
                                     size_t arity) {
  if (lit.cached_store == store_ &&
      lit.cached_gen == store_->generation()) {
    return lit.cached_rel;
  }
  Relation* rel = store_->GetOrCreate(lit.pred, arity);
  lit.cached_store = store_;
  lit.cached_gen = store_->generation();
  lit.cached_rel = rel;
  return rel;
}

Status Evaluator::Step(ExecContext* ctx, size_t oi) {
  if (oi == ctx->order->size()) return ctx->on_solution();
  const CompiledLiteral& lit =
      ctx->rule->body[static_cast<size_t>((*ctx->order)[oi])];
  bool is_delta = (*ctx->order)[oi] == ctx->delta_pos;
  switch (lit.kind) {
    case CompiledLiteral::Kind::kRelation:
      return EvalRelation(ctx, oi, lit);
    case CompiledLiteral::Kind::kNegation:
      return EvalNegation(ctx, oi, lit);
    case CompiledLiteral::Kind::kEquality:
      return EvalEquality(ctx, oi, lit);
    case CompiledLiteral::Kind::kBuiltin:
      return EvalBuiltin(ctx, oi, lit);
  }
  (void)is_delta;
  return util::Internal("unknown literal kind");
}

Status Evaluator::EvalRelation(ExecContext* ctx, size_t oi,
                               const CompiledLiteral& lit) {
  int body_idx = (*ctx->order)[oi];
  Relation* rel = (body_idx == ctx->delta_pos)
                      ? ctx->delta_rel
                      : ResolveRelation(lit, lit.cols.size());
  const size_t arity = lit.cols.size();
  if (rel->arity() != arity) {
    return util::TypeError(util::StrCat("predicate '", lit.pred, "' used with ",
                                        lit.cols.size(), " columns, stored as ",
                                        rel->arity()));
  }
  Bindings& b = ctx->bindings;
  const VarTable& vars = ctx->rule->vars;

  uint64_t mask = 0;
  ValueId key[64];
  size_t nkey = 0;
  size_t open[64];
  size_t nopen = 0;
  for (size_t i = 0; i < arity; ++i) {
    ValueId id;
    switch (TryGroundArgId(lit.cols[i], vars, b, pool_, &id)) {
      case GroundArg::kGround:
        mask |= uint64_t{1} << i;
        key[nkey++] = id;
        break;
      case GroundArg::kAbsent:
        return util::OkStatus();  // value never interned: no row matches
      case GroundArg::kUnbound:
        open[nopen++] = i;
        break;
    }
  }

  // `row` is a caller-owned snapshot: recursive Step calls may insert into
  // `rel` (self-recursive rules) and reallocate its storage. The trail is
  // hoisted so its buffer is reused across the rows this frame enumerates.
  Trail trail;
  auto try_row = [&](const ValueId* row) -> Status {
    trail.clear();
    bool ok = true;
    for (size_t k = 0; k < nopen; ++k) {
      size_t i = open[k];
      const CompiledArg& col = lit.cols[i];
      if (col.kind == CompiledArg::Kind::kVar) {
        // The dominant case: bind or compare an 8-byte id, no Value.
        if (b.IsBound(col.slot)) {
          if (b.slots[col.slot] != row[i]) {
            ok = false;
            break;
          }
        } else {
          b.slots[col.slot] = row[i];
          trail.push_back(col.slot);
        }
      } else if (!UnifyTermValue(col.term, pool_->Get(row[i]),
                                 &ctx->rule->vars, &b, &trail)) {
        ok = false;
        break;
      }
    }
    Status st = util::OkStatus();
    if (ok) {
      if (ctx->premises != nullptr) {
        ctx->premises->emplace_back(lit.pred,
                                    MaterializeTuple(*pool_, row, arity));
      }
      st = Step(ctx, oi + 1);
      if (ctx->premises != nullptr) ctx->premises->pop_back();
    }
    UndoTrail(trail, &b);
    return st;
  };

  // Probe tallies are plain context-owned counters (see ExecContext);
  // `hits` counts rows the probe yielded, so hits/probes is the literal's
  // observed selectivity at this order position.
  if (oi == 0 && ctx->first_restricted) {
    // Worker-chunk enumeration: this task's leading literal is split into
    // row ranges. Constants filter with direct id compares instead of an
    // index, so the frozen relation needs no index for position 0 (and
    // delta relations never get one).
    const size_t limit = std::min(ctx->first_end, rel->size());
    ValueId row[64];
    uint64_t matched = 0;
    for (size_t i = ctx->first_begin; i < limit; ++i) {
      const uint32_t id = static_cast<uint32_t>(i);
      if (mask != 0 && !rel->RowMatchesKey(id, mask, key)) continue;
      ++matched;
      if (arity > 0) std::memcpy(row, rel->RowIds(id), arity * sizeof(ValueId));
      LB_RETURN_IF_ERROR(try_row(row));
    }
    if (ctx->probe_tally != nullptr) {
      ctx->probe_tally[body_idx] += 1;
      ctx->hit_tally[body_idx] += matched;
    }
    return util::OkStatus();
  }
  if (nopen == 0 && body_idx != ctx->delta_pos &&
      mask == ((arity >= 64) ? ~uint64_t{0} : (uint64_t{1} << arity) - 1)) {
    // Fully bound probe: a primary-set membership check, no index at all.
    // (Delta relations skip this: they are append-only and carry no
    // primary set.)
    const bool hit = rel->ContainsIds(key);
    if (ctx->probe_tally != nullptr) {
      ctx->probe_tally[body_idx] += 1;
      ctx->hit_tally[body_idx] += hit ? 1 : 0;
    }
    if (!hit) return util::OkStatus();
    return try_row(key);
  }
  if (mask != 0) {
    std::vector<uint32_t>& ids = ctx->probe_scratch[oi];
    ids.clear();
    rel->LookupIds(mask, key, &ids);
    if (ctx->probe_tally != nullptr) {
      ctx->probe_tally[body_idx] += 1;
      ctx->hit_tally[body_idx] += ids.size();
    }
    ValueId row[64];
    for (uint32_t id : ids) {
      if (arity > 0) std::memcpy(row, rel->RowIds(id), arity * sizeof(ValueId));
      LB_RETURN_IF_ERROR(try_row(row));
    }
  } else {
    const size_t n = rel->size();  // snapshot: rows appended during
                                   // recursion are handled by later
                                   // semi-naive rounds
    if (ctx->probe_tally != nullptr) {
      ctx->probe_tally[body_idx] += 1;
      ctx->hit_tally[body_idx] += n;
    }
    ValueId row[64];
    for (size_t i = 0; i < n; ++i) {
      if (arity > 0) std::memcpy(row, rel->RowIds(i), arity * sizeof(ValueId));
      LB_RETURN_IF_ERROR(try_row(row));
    }
  }
  return util::OkStatus();
}

Status Evaluator::EvalNegation(ExecContext* ctx, size_t oi,
                               const CompiledLiteral& lit) {
  Relation* rel = ResolveRelation(lit, lit.cols.size());
  Bindings& b = ctx->bindings;
  const VarTable& vars = ctx->rule->vars;

  uint64_t mask = 0;
  ValueId key[64];
  size_t nkey = 0;
  size_t open_patterns[64];
  size_t nopen = 0;
  for (size_t i = 0; i < lit.cols.size(); ++i) {
    ValueId id;
    switch (TryGroundArgId(lit.cols[i], vars, b, pool_, &id)) {
      case GroundArg::kGround:
        mask |= uint64_t{1} << i;
        key[nkey++] = id;
        break;
      case GroundArg::kAbsent:
        // The computed value was never interned, so no stored row carries
        // it: the literal cannot match and the negation holds.
        return Step(ctx, oi + 1);
      case GroundArg::kUnbound:
        if (lit.cols[i].kind == CompiledArg::Kind::kPattern) {
          open_patterns[nopen++] = i;
        }
        // Unbound kVar columns are wildcards (∄ semantics, e.g. dd4's
        // `!delegates(me,_,P)` before P's delegation exists).
        break;
    }
  }

  bool found = false;
  if (nopen == 0) {
    found = rel->MatchesIds(mask, key);
  } else {
    std::vector<uint32_t>& ids = ctx->probe_scratch[oi];
    ids.clear();
    if (mask != 0) {
      rel->LookupIds(mask, key, &ids);
    } else {
      ids.reserve(rel->size());
      for (uint32_t id : rel->Rows()) ids.push_back(id);
    }
    for (uint32_t id : ids) {
      const ValueId* row = rel->RowIds(id);
      Trail trail;
      bool ok = true;
      for (size_t k = 0; k < nopen; ++k) {
        size_t i = open_patterns[k];
        if (!UnifyTermValue(lit.cols[i].term, pool_->Get(row[i]),
                            &ctx->rule->vars, &b, &trail)) {
          ok = false;
          break;
        }
      }
      UndoTrail(trail, &b);
      if (ok) {
        found = true;
        break;
      }
    }
  }
  if (found) return util::OkStatus();  // negation fails: no solutions here
  return Step(ctx, oi + 1);
}

Status Evaluator::EvalEquality(ExecContext* ctx, size_t oi,
                               const CompiledLiteral& lit) {
  Bindings& b = ctx->bindings;
  const VarTable& vars = ctx->rule->vars;
  // Value-level comparison: equality may relate two *computed* values
  // (e.g. X+1 = Y*2) that have no pool entry, so ids are the wrong
  // currency here — and materializing keeps transient arithmetic out of
  // the pool.
  Value v0, v1;
  bool g0 = TryGroundArg(lit.cols[0], vars, b, &v0);
  bool g1 = TryGroundArg(lit.cols[1], vars, b, &v1);
  if (g0 && g1) {
    if (v0 == v1) return Step(ctx, oi + 1);
    return util::OkStatus();
  }
  const CompiledArg* pattern = nullptr;
  const Value* value = nullptr;
  if (g0) {
    pattern = &lit.cols[1];
    value = &v0;
  } else if (g1) {
    pattern = &lit.cols[0];
    value = &v1;
  } else {
    // Both sides open (possible only via deferred pattern bindings): no
    // match rather than an error — mirrors EvalBuiltin.
    return util::OkStatus();
  }
  Trail trail;
  Status st = util::OkStatus();
  if (UnifyTermValue(pattern->term, *value, &ctx->rule->vars, &b, &trail)) {
    st = Step(ctx, oi + 1);
  }
  UndoTrail(trail, &b);
  return st;
}

Status Evaluator::EvalBuiltin(ExecContext* ctx, size_t oi,
                              const CompiledLiteral& lit) {
  Bindings& b = ctx->bindings;
  const VarTable& vars = ctx->rule->vars;
  std::vector<std::optional<Value>> args(lit.cols.size());
  for (size_t i = 0; i < lit.cols.size(); ++i) {
    Value v;
    if (TryGroundArg(lit.cols[i], vars, b, &v)) args[i] = std::move(v);
  }
  // Mode check (compile guaranteed one exists given schedule, but builtins
  // may also be reached through EvalQuery with user-chosen bindings).
  bool mode_ok = false;
  for (const std::string& mode : lit.builtin->modes) {
    bool ok = true;
    for (size_t i = 0; i < mode.size() && i < args.size(); ++i) {
      if (mode[i] == 'b' && !args[i].has_value()) {
        ok = false;
        break;
      }
    }
    if (ok) {
      mode_ok = true;
      break;
    }
  }
  if (!mode_ok && !lit.negated) {
    // The schedule guarantees bindability in the common case, but deferred
    // pattern-variable bindings (pattern var matched against a target
    // variable) can leave arguments unbound at runtime; the builtin then
    // simply does not match.
    return util::OkStatus();
  }

  if (lit.negated) {
    bool any = false;
    LB_RETURN_IF_ERROR(lit.builtin->fn(args, [&](const Tuple&) { any = true; }));
    if (any) return util::OkStatus();
    return Step(ctx, oi + 1);
  }

  Status inner = util::OkStatus();
  LB_RETURN_IF_ERROR(lit.builtin->fn(args, [&](const Tuple& solution) {
    if (!inner.ok()) return;
    if (solution.size() != lit.cols.size()) {
      inner = util::Internal(util::StrCat("builtin '", lit.pred,
                                          "' emitted wrong arity"));
      return;
    }
    Trail trail;
    bool ok = true;
    for (size_t i = 0; i < lit.cols.size(); ++i) {
      if (!UnifyTermValue(lit.cols[i].term, solution[i], &ctx->rule->vars, &b,
                          &trail)) {
        ok = false;
        break;
      }
    }
    if (ok) inner = Step(ctx, oi + 1);
    UndoTrail(trail, &b);
  }));
  return inner;
}

Status Evaluator::EvalRuleOnce(
    CompiledRule* rule, int delta_pos, Relation* delta_rel,
    const std::function<Status(const ValueId*)>& emit,
    uint64_t* probe_tally, uint64_t* hit_tally) {
  ExecContext ctx;
  ctx.rule = rule;
  ctx.delta_pos = delta_pos;
  ctx.delta_rel = delta_rel;
  ctx.order = (delta_pos >= 0) ? &rule->order_delta.at(delta_pos)
                               : &rule->order_full;
  ctx.probe_tally = probe_tally;
  ctx.hit_tally = hit_tally;
  ctx.bindings.pool = pool_;
  ctx.bindings.EnsureSize(rule->vars.size());
  // Sized up front: frames hold references into it, so it must never
  // reallocate mid-evaluation. Inner vectors start empty (no heap).
  ctx.probe_scratch.resize(ctx.order->size());
  std::vector<std::pair<std::string, Tuple>> premises;
  if (provenance_ != nullptr && !rule->agg.has_value()) {
    ctx.premises = &premises;
  }
  // Only track the emitting rule when provenance needs it: these are
  // evaluator-wide members, and worker threads (which only ever run with
  // provenance disabled) must not write shared state.
  if (provenance_ != nullptr) {
    emitting_rule_ = rule;
    emitting_premises_ = ctx.premises;
  }

  if (rule->agg.has_value()) {
    // Aggregate over the *set* of body solutions (deduplicated on the full
    // variable assignment — standard bag-of-distinct-substitutions
    // semantics): count folds distinct input values; total/min/max fold the
    // input of every distinct solution, so two bureaus with equal weight
    // both contribute to a weighted threshold (§4.2.2).
    // Distinct solutions dedup on the interned binding vector (canonical
    // ids, so id-vector equality is assignment equality); groups and inputs
    // stay materialized so the fold and emission order match the seed
    // engine exactly.
    std::set<IdTuple> seen_solutions;
    std::map<Tuple, std::vector<Value>> by_group;
    ctx.on_solution = [&]() -> Status {
      Tuple group;
      group.reserve(rule->head_cols.size());
      for (const CompiledArg& col : rule->head_cols) {
        if (col.kind == CompiledArg::Kind::kVar &&
            col.slot == rule->agg_result_slot) {
          continue;  // computed below
        }
        Value v;
        if (!TryGroundHeadArg(col, rule->vars, ctx.bindings, &v)) {
          return util::UnsafeProgram("unbound aggregate group column");
        }
        group.push_back(std::move(v));
      }
      if (!ctx.bindings.IsBound(rule->agg_input_slot)) {
        return util::UnsafeProgram("unbound aggregate input");
      }
      if (!seen_solutions.insert(ctx.bindings.slots).second) {
        return util::OkStatus();
      }
      by_group[std::move(group)].push_back(
          ctx.bindings.Get(rule->agg_input_slot));
      return util::OkStatus();
    };
    LB_RETURN_IF_ERROR(Step(&ctx, 0));

    for (const auto& [group, inputs] : by_group) {
      Value result;
      switch (rule->agg->fn) {
        case Aggregate::Fn::kCount: {
          std::set<Value> distinct(inputs.begin(), inputs.end());
          result = Value::Int(static_cast<int64_t>(distinct.size()));
          break;
        }
        case Aggregate::Fn::kTotal: {
          bool all_int = true;
          double sum = 0;
          int64_t isum = 0;
          for (const Value& v : inputs) {
            if (!v.IsNumeric()) {
              return util::TypeError("total() over non-numeric values");
            }
            if (v.kind() == ValueKind::kInt) {
              isum += v.AsInt();
            } else {
              all_int = false;
            }
            sum += v.NumericValue();
          }
          result = all_int ? Value::Int(isum) : Value::Double(sum);
          break;
        }
        case Aggregate::Fn::kMin:
        case Aggregate::Fn::kMax: {
          result = inputs[0];
          for (const Value& v : inputs) {
            bool take = rule->agg->fn == Aggregate::Fn::kMin ? (v < result)
                                                             : (result < v);
            if (take) result = v;
          }
          break;
        }
      }
      // Rebuild the head tuple: group columns in order, result in place.
      IdTuple out;
      size_t gi = 0;
      for (const CompiledArg& col : rule->head_cols) {
        if (col.kind == CompiledArg::Kind::kVar &&
            col.slot == rule->agg_result_slot) {
          out.push_back(pool_->Intern(result));
        } else {
          out.push_back(pool_->Intern(group[gi++]));
        }
      }
      LB_RETURN_IF_ERROR(emit(out.data()));
    }
    return util::OkStatus();
  }

  IdTuple out(rule->head_cols.size());
  ctx.on_solution = [&]() -> Status {
    for (size_t i = 0; i < rule->head_cols.size(); ++i) {
      if (!TryGroundHeadArgId(rule->head_cols[i], rule->vars, ctx.bindings,
                              pool_, &out[i])) {
        return util::UnsafeProgram(
            util::StrCat("unbound head column in rule: ",
                         PrintRule(rule->source)));
      }
    }
    return emit(out.data());
  };
  return Step(&ctx, 0);
}

void Evaluator::FoldRuleMetrics(const CompiledRule* rule, uint64_t derived,
                                const uint64_t* probe_tally,
                                const uint64_t* hit_tally,
                                uint64_t elapsed_us) {
  const CompiledRule::Counters& rc = rule->counters;
  uint64_t probes_total = 0;
  for (size_t bi = 0; bi < rule->body.size(); ++bi) {
    if (probe_tally[bi] == 0 && hit_tally[bi] == 0) continue;
    const CompiledLiteral& lit = rule->body[bi];
    lit.probes->Add(probe_tally[bi]);
    lit.hits->Add(hit_tally[bi]);
    probes_total += probe_tally[bi];
  }
  rc.evals->Add(1);
  rc.derived->Add(derived);
  rc.probes->Add(probes_total);
  rc.eval_us->Add(elapsed_us);
  counters_->tuples_derived->Add(derived);
}

void Evaluator::FoldChunkMetrics(const CompiledRule* rule, uint64_t derived,
                                 size_t chunk_begin, size_t chunk_end) {
  tally_probes_.assign(rule->body.size(), 0);
  tally_hits_.assign(rule->body.size(), 0);
  uint64_t eval_us = 0;
  for (size_t ci = chunk_begin; ci < chunk_end; ++ci) {
    const EmitBuffer& buf = emit_bufs_[ci];
    eval_us += buf.eval_us;
    for (size_t bi = 0; bi < buf.probes.size(); ++bi) {
      tally_probes_[bi] += buf.probes[bi];
      tally_hits_[bi] += buf.hits[bi];
    }
  }
  FoldRuleMetrics(rule, derived, tally_probes_.data(), tally_hits_.data(),
                  eval_us);
}

void Evaluator::RecordRoundDelta(const std::map<std::string, Relation>& delta) {
  counters_->rounds->Add(1);
  uint64_t rows = 0;
  for (const auto& [pred, rel] : delta) rows += rel.size();
  counters_->delta_rows->Observe(rows);
}

namespace {

/// The one derived-row step of every round, on both paths: RunRuleInto
/// emits through it and the parallel round's merge replays its chunk
/// buffers through it. A deduplicating insert into the head relation; a
/// row that was new there charges the tuple budget and is appended to the
/// head's entries in `next_delta` and (when non-null) `stratum_new`,
/// created on first use so a task that derives nothing leaves no empty
/// entry behind. The full-store insert deduped, so the outputs take
/// unchecked appends.
class HeadWriter {
 public:
  HeadWriter(const std::string& pred, Relation* full, ValuePool* pool,
             const Evaluator::Limits& limits, size_t* total_tuples,
             std::map<std::string, Relation>* next_delta,
             std::map<std::string, Relation>* stratum_new)
      : pred_(pred),
        full_(full),
        pool_(pool),
        limits_(limits),
        total_tuples_(total_tuples),
        next_delta_(next_delta),
        stratum_new_(stratum_new) {}

  /// `hash` is full->RowHash(row).
  Status Insert(const ValueId* row, uint64_t hash) {
    if (!full_->InsertIdsHashed(row, hash)) return util::OkStatus();
    ++derived_;
    if (++*total_tuples_ > limits_.max_tuples) {
      return util::Internal(
          "fixpoint exceeded tuple budget (diverging program?)");
    }
    Append(next_delta_, &dnext_, row);
    if (stratum_new_ != nullptr) Append(stratum_new_, &snext_, row);
    return util::OkStatus();
  }

  /// Rows this writer inserted that were new in the full store.
  uint64_t derived() const { return derived_; }

 private:
  void Append(std::map<std::string, Relation>* out, Relation** rel,
              const ValueId* row) {
    if (*rel == nullptr) {
      *rel = &out->try_emplace(pred_, full_->arity(), pool_).first->second;
    }
    (*rel)->AppendUnchecked(row);
  }

  const std::string& pred_;
  Relation* full_;
  ValuePool* pool_;
  const Evaluator::Limits& limits_;
  size_t* total_tuples_;
  std::map<std::string, Relation>* next_delta_;
  std::map<std::string, Relation>* stratum_new_;
  Relation* dnext_ = nullptr;
  Relation* snext_ = nullptr;
  uint64_t derived_ = 0;
};

/// The args of a "rule" span: which rule ran, from which delta position,
/// and how many new tuples it derived.
void SetRuleSpanArgs(obs::ScopedSpan* span, const CompiledRule& rule, int pos,
                     uint64_t derived) {
  if (!span->enabled()) return;
  span->set_args(util::StrCat("\"head\":\"", obs::LabelEscape(rule.head_pred),
                              "\",\"rule\":", rule.id, ",\"delta_pos\":", pos,
                              ",\"derived\":", derived));
}

/// Stable in-place dedup of an emission buffer (first occurrence wins, so
/// order — and therefore determinism — is preserved). Used as a memory
/// backstop when a chunk's raw emission count grows large: duplicates are
/// legal (the merge deduplicates anyway) and must not trip the tuple
/// budget, which counts distinct new tuples.
void CompactEmitBuffer(std::vector<ValueId>* rows,
                       std::vector<uint64_t>* hashes, size_t arity) {
  std::unordered_map<uint64_t, std::vector<size_t>> seen;  // hash -> kept idx
  size_t kept = 0;
  const size_t n = hashes->size();
  for (size_t r = 0; r < n; ++r) {
    const ValueId* row = rows->data() + r * arity;
    const uint64_t h = (*hashes)[r];
    std::vector<size_t>& bucket = seen[h];
    bool dup = false;
    for (size_t prev : bucket) {
      if (arity == 0 ||
          std::memcmp(rows->data() + prev * arity, row,
                      arity * sizeof(ValueId)) == 0) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    if (kept != r) {
      if (arity > 0) {
        std::memmove(rows->data() + kept * arity, row,
                     arity * sizeof(ValueId));
      }
      (*hashes)[kept] = h;
    }
    bucket.push_back(kept);
    ++kept;
  }
  hashes->resize(kept);
  rows->resize(kept * arity);
}

}  // namespace

Status Evaluator::RunRuleInto(CompiledRule* rule, int pos,
                              Relation* delta_rel, const Limits& limits,
                              size_t* total_tuples,
                              std::map<std::string, Relation>* next_delta,
                              std::map<std::string, Relation>* stratum_new) {
  const size_t arity = rule->head_cols.size();
  Relation* full = store_->GetOrCreate(rule->head_pred, arity);
  if (full->arity() != arity) {
    return util::TypeError(
        util::StrCat("arity mismatch inserting into '", rule->head_pred, "'"));
  }
  tally_probes_.assign(rule->body.size(), 0);
  tally_hits_.assign(rule->body.size(), 0);
  obs::ScopedSpan span(tracer_, "rule");
  const uint64_t eval_start_us = obs::Tracer::NowMicros();
  HeadWriter out(rule->head_pred, full, pool_, limits, total_tuples,
                 next_delta, stratum_new);
  Status result = EvalRuleOnce(
      rule, pos, delta_rel,
      [&](const ValueId* row) -> Status {
    if (provenance_ != nullptr && emitting_rule_ != nullptr) {
      Derivation d;
      d.kind = emitting_rule_->agg.has_value() ? Derivation::Kind::kAggregate
                                               : Derivation::Kind::kRule;
      d.rule_canon = PrintRule(emitting_rule_->source);
      if (emitting_premises_ != nullptr) d.premises = *emitting_premises_;
      provenance_->Record(rule->head_pred, MaterializeTuple(*pool_, row, arity),
                          std::move(d));
    }
    return out.Insert(row, full->RowHash(row));
      },
      tally_probes_.data(), tally_hits_.data());
  if (result.ok()) {
    FoldRuleMetrics(rule, out.derived(), tally_probes_.data(),
                    tally_hits_.data(),
                    obs::Tracer::NowMicros() - eval_start_us);
  }
  SetRuleSpanArgs(&span, *rule, pos, out.derived());
  return result;
}

Status Evaluator::EvalRuleChunk(CompiledRule* rule, int pos,
                                Relation* delta_rel, bool restricted,
                                size_t begin, size_t end, const Limits& limits,
                                Relation* full, EmitBuffer* buf) {
  ExecContext ctx;
  ctx.rule = rule;
  ctx.delta_pos = pos;
  ctx.delta_rel = delta_rel;
  ctx.order = (pos >= 0) ? &rule->order_delta.at(pos) : &rule->order_full;
  ctx.bindings.pool = pool_;
  ctx.bindings.EnsureSize(rule->vars.size());
  ctx.probe_scratch.resize(ctx.order->size());
  ctx.first_restricted = restricted;
  ctx.first_begin = begin;
  ctx.first_end = end;
  // Chunk-local tallies ride the emit buffer; the merge sums them, so
  // concurrent workers never touch a shared counter.
  buf->probes.assign(rule->body.size(), 0);
  buf->hits.assign(rule->body.size(), 0);
  ctx.probe_tally = buf->probes.data();
  ctx.hit_tally = buf->hits.data();
  const size_t arity = rule->head_cols.size();
  IdTuple out(arity);
  size_t budget_check_at = limits.max_tuples + 1;
  ctx.on_solution = [&]() -> Status {
    for (size_t i = 0; i < arity; ++i) {
      // parallel_safe guarantees kConst/kVar head columns, so this never
      // interns: constants were pre-interned, variables are id reads.
      if (!TryGroundHeadArgId(rule->head_cols[i], rule->vars, ctx.bindings,
                              pool_, &out[i])) {
        return util::UnsafeProgram(util::StrCat(
            "unbound head column in rule: ", PrintRule(rule->source)));
      }
    }
    const uint64_t h = full->RowHash(out.data());
    // Pre-filter against the frozen full relation: duplicate re-derivations
    // of already-stored tuples die here, in parallel, instead of occupying
    // the sequential merge.
    if (full->ContainsIdsHashed(out.data(), h)) return util::OkStatus();
    buf->rows.insert(buf->rows.end(), out.begin(), out.end());
    buf->hashes.push_back(h);
    // Memory backstop. The store is frozen, so a chunk always terminates,
    // but a dense join can emit the same new tuple many times before the
    // merge deduplicates; raw emissions must not trip the tuple budget
    // (which counts distinct inserts — the sequential engine happily
    // churns through duplicates). Compact with a stable dedup and fail
    // only if the chunk's DISTINCT emissions exceed the budget, which
    // the sequential path would also have failed. The doubling schedule
    // keeps compaction amortized O(1) per emission.
    if (buf->hashes.size() >= budget_check_at) {
      CompactEmitBuffer(&buf->rows, &buf->hashes, arity);
      if (buf->hashes.size() > limits.max_tuples) {
        return util::Internal(
            "fixpoint exceeded tuple budget (diverging program?)");
      }
      budget_check_at =
          std::max(limits.max_tuples + 1, buf->hashes.size() * 2);
    }
    return util::OkStatus();
  };
  const uint64_t start_us = obs::Tracer::NowMicros();
  Status result = Step(&ctx, 0);
  buf->eval_us = obs::Tracer::NowMicros() - start_us;
  return result;
}

Status Evaluator::RunRound(const std::vector<RoundTask>& tasks,
                           const Limits& limits, size_t* total_tuples,
                           std::map<std::string, Relation>* next_delta,
                           std::map<std::string, Relation>* stratum_new) {
  bool parallel = threads_ > 1 && provenance_ == nullptr;
  if (parallel) {
    parallel = false;
    for (const RoundTask& t : tasks) {
      if (t.rule->parallel_safe) {
        parallel = true;
        break;
      }
    }
  }
  if (!parallel) {
    // Classic sequential round (threads == 1 path): in-round visibility,
    // immediate inserts — exactly the pre-parallel engine.
    for (const RoundTask& t : tasks) {
      LB_RETURN_IF_ERROR(RunRuleInto(t.rule, t.pos, t.delta_rel, limits,
                                     total_tuples, next_delta, stratum_new));
    }
    return util::OkStatus();
  }

  // --- Prep (sequential): resolve every relation a worker can reach, pre-
  // intern constants, pre-build the statically known probe-mask indexes,
  // then freeze. After this, phase A touches no mutable shared state.
  struct TaskPlan {
    bool safe = false;
    Relation* head = nullptr;
    Relation* first_rel = nullptr;  ///< partitionable leading relation
    size_t chunk_begin = 0;
    size_t chunk_end = 0;
  };
  std::vector<TaskPlan> plans(tasks.size());
  std::vector<Relation*> frozen;
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    const RoundTask& t = tasks[ti];
    if (!t.rule->parallel_safe) continue;
    TaskPlan& plan = plans[ti];
    CompiledRule* rule = t.rule;
    const size_t head_arity = rule->head_cols.size();
    Relation* head = store_->GetOrCreate(rule->head_pred, head_arity);
    if (head->arity() != head_arity) {
      return util::TypeError(util::StrCat("arity mismatch inserting into '",
                                          rule->head_pred, "'"));
    }
    plan.head = head;
    frozen.push_back(head);
    if (t.delta_rel != nullptr) frozen.push_back(t.delta_rel);
    for (size_t bi = 0; bi < rule->body.size(); ++bi) {
      const CompiledLiteral& lit = rule->body[bi];
      if (lit.kind != CompiledLiteral::Kind::kRelation &&
          lit.kind != CompiledLiteral::Kind::kNegation) {
        continue;
      }
      if (static_cast<int>(bi) == t.pos) continue;  // reads delta_rel
      Relation* rel = ResolveRelation(lit, lit.cols.size());
      if (rel->arity() != lit.cols.size()) {
        return util::TypeError(util::StrCat(
            "predicate '", lit.pred, "' used with ", lit.cols.size(),
            " columns, stored as ", rel->arity()));
      }
      frozen.push_back(rel);
    }
    for (const CompiledLiteral& lit : rule->body) {
      for (const CompiledArg& c : lit.cols) {
        if (c.kind == CompiledArg::Kind::kConst) ConstId(c, pool_);
      }
    }
    for (const CompiledArg& c : rule->head_cols) {
      if (c.kind == CompiledArg::Kind::kConst) ConstId(c, pool_);
    }
    const CompiledRule::OrderProbes& probes =
        t.pos >= 0 ? rule->probes_delta.at(t.pos) : rule->probes_full;
    for (const CompiledRule::OrderProbes::Need& need : probes.index_masks) {
      const CompiledLiteral& lit =
          rule->body[static_cast<size_t>(need.body_idx)];
      Relation* rel = need.body_idx == t.pos
                          ? t.delta_rel
                          : ResolveRelation(lit, lit.cols.size());
      rel->BuildIndex(need.mask);
    }
    if (probes.partition_first) {
      const std::vector<int>& order =
          t.pos >= 0 ? rule->order_delta.at(t.pos) : rule->order_full;
      const int first_idx = order[0];
      const CompiledLiteral& first_lit =
          rule->body[static_cast<size_t>(first_idx)];
      plan.first_rel = first_idx == t.pos
                           ? t.delta_rel
                           : ResolveRelation(first_lit, first_lit.cols.size());
    }
    plan.safe = true;
  }

  // --- Chunking: deterministic (depends only on row counts and the
  // configured thread count). Concatenating chunk outputs in order yields
  // the same emission stream regardless of which worker ran which chunk,
  // and regardless of chunk boundaries — so any threads >= 2 run of the
  // same state produces bit-identical stores.
  struct ChunkSpec {
    size_t task;
    bool restricted;
    size_t begin;
    size_t end;
  };
  constexpr size_t kMinChunkRows = 8;
  std::vector<ChunkSpec> chunks;
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    TaskPlan& plan = plans[ti];
    if (!plan.safe) continue;
    plan.chunk_begin = chunks.size();
    if (plan.first_rel != nullptr) {
      const size_t n = plan.first_rel->size();
      const size_t nchunks = std::min<size_t>(
          threads_, std::max<size_t>(1, n / kMinChunkRows));
      for (size_t c = 0; c < nchunks; ++c) {
        chunks.push_back({ti, true, n * c / nchunks, n * (c + 1) / nchunks});
      }
    } else {
      chunks.push_back({ti, false, 0, 0});
    }
    plan.chunk_end = chunks.size();
  }

  std::sort(frozen.begin(), frozen.end());
  frozen.erase(std::unique(frozen.begin(), frozen.end()), frozen.end());
  for (Relation* rel : frozen) rel->FreezeForRead();

  // --- Phase A: evaluate chunks against the frozen view.
  if (emit_bufs_.size() < chunks.size()) emit_bufs_.resize(chunks.size());
  std::vector<Status> chunk_status(chunks.size());
  auto run_chunk = [&](size_t ci) {
    const ChunkSpec& c = chunks[ci];
    const RoundTask& t = tasks[c.task];
    emit_bufs_[ci].clear();
    chunk_status[ci] =
        EvalRuleChunk(t.rule, t.pos, t.delta_rel, c.restricted, c.begin,
                      c.end, limits, plans[c.task].head, &emit_bufs_[ci]);
  };
  // Spawn only as many workers as this round can actually use (the
  // caller participates, so chunks - 1 saturates the round); a shared
  // slot keeps the threads alive across fixpoints.
  const unsigned want_workers = static_cast<unsigned>(std::min<size_t>(
      threads_ - 1, chunks.empty() ? 0 : chunks.size() - 1));
  if (want_workers > 0) {
    EvalWorkerPoolHandle& pool = *workers_slot_;
    if (pool == nullptr) {
      pool = EvalWorkerPoolHandle(new EvalWorkerPool(want_workers));
    } else {
      pool->EnsureWorkers(want_workers);
    }
    pool->Run(chunks.size(), run_chunk);
  } else {
    for (size_t ci = 0; ci < chunks.size(); ++ci) run_chunk(ci);
  }
  for (Relation* rel : frozen) rel->Thaw();

  // --- Merge, on this thread: replay the chunk buffers in deterministic
  // (task, chunk, row) order through the same insert step RunRuleInto
  // uses. Non-safe tasks evaluate inline at their task position,
  // preserving the sequential in-round visibility order.
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    const RoundTask& t = tasks[ti];
    const TaskPlan& plan = plans[ti];
    if (!plan.safe) {
      LB_RETURN_IF_ERROR(RunRuleInto(t.rule, t.pos, t.delta_rel, limits,
                                     total_tuples, next_delta, stratum_new));
      continue;
    }
    obs::ScopedSpan span(tracer_, "rule");
    HeadWriter out(t.rule->head_pred, plan.head, pool_, limits, total_tuples,
                   next_delta, stratum_new);
    const size_t arity = t.rule->head_cols.size();
    for (size_t ci = plan.chunk_begin; ci < plan.chunk_end; ++ci) {
      LB_RETURN_IF_ERROR(chunk_status[ci]);
      const EmitBuffer& buf = emit_bufs_[ci];
      for (size_t r = 0; r < buf.hashes.size(); ++r) {
        LB_RETURN_IF_ERROR(
            out.Insert(buf.rows.data() + r * arity, buf.hashes[r]));
      }
    }
    FoldChunkMetrics(t.rule, out.derived(), plan.chunk_begin, plan.chunk_end);
    SetRuleSpanArgs(&span, *t.rule, t.pos, out.derived());
  }
  return util::OkStatus();
}

Status Evaluator::Run(const std::vector<CompiledRule*>& rules,
                      const Stratification& strat, const Limits& limits,
                      const EvalCounters& counters,
                      std::optional<std::map<std::string, Relation>> seed,
                      bool naive) {
  counters_ = &counters;
  size_t total_tuples = 0;

  for (size_t level = 0; level < strat.strata.size(); ++level) {
    std::vector<CompiledRule*> stratum_rules;
    for (CompiledRule* r : rules) {
      auto it = strat.level.find(r->head_pred);
      if (it != strat.level.end() &&
          it->second == static_cast<int>(level)) {
        stratum_rules.push_back(r);
      }
    }
    if (stratum_rules.empty()) continue;
    obs::ScopedSpan stratum_span(tracer_, "stratum");

    auto in_stratum = [&](const std::string& pred) {
      auto it = strat.level.find(pred);
      return it != strat.level.end() &&
             it->second == static_cast<int>(level);
    };

    // Everything a delta run's stratum derives, for the round 0 of the
    // strata above it. A full run evaluates those strata in full instead.
    std::map<std::string, Relation> stratum_new;
    std::map<std::string, Relation>* stratum_out =
        seed.has_value() ? &stratum_new : nullptr;

    // Round 0. A full run evaluates every rule of the stratum in full; the
    // naive ablation stays on the classic sequential path throughout. A
    // delta run drives every rule once per changed body relation (the
    // seed plus the lower strata's output so far). Non-delta positions
    // read the full (already extended) store, so combinations of several
    // changed relations are covered; set semantics dedups the overlap.
    // Rules with no changed body relation are skipped — their
    // consequences are already in the store. Aggregate rules never take
    // the delta path (Workspace::DeltaFixpointEligible rebuilds when a
    // delta can feed an aggregate).
    std::map<std::string, Relation> delta;
    if (naive) {
      for (CompiledRule* r : stratum_rules) {
        LB_RETURN_IF_ERROR(RunRuleInto(r, -1, nullptr, limits, &total_tuples,
                                       &delta, /*stratum_new=*/nullptr));
      }
    } else {
      std::vector<RoundTask> tasks;
      for (CompiledRule* r : stratum_rules) {
        if (!seed.has_value()) {
          tasks.push_back(RoundTask{r, -1, nullptr});
          continue;
        }
        if (r->agg.has_value()) continue;
        for (int pos : r->relation_positions) {
          const std::string& pred = r->body[static_cast<size_t>(pos)].pred;
          auto sit = seed->find(pred);
          if (sit == seed->end() || sit->second.empty()) continue;
          tasks.push_back(RoundTask{r, pos, &sit->second});
        }
      }
      LB_RETURN_IF_ERROR(
          RunRound(tasks, limits, &total_tuples, &delta, stratum_out));
    }
    RecordRoundDelta(delta);

    // Recursive rounds.
    size_t rounds = 0;
    while (!delta.empty()) {
      if (++rounds > limits.max_rounds) {
        return util::Internal("fixpoint exceeded round budget");
      }
      std::map<std::string, Relation> next_delta;
      if (naive) {
        for (CompiledRule* r : stratum_rules) {
          if (r->agg.has_value()) continue;  // agg bodies are lower strata
          bool recursive = false;
          for (int pos : r->relation_positions) {
            if (in_stratum(r->body[static_cast<size_t>(pos)].pred)) {
              recursive = true;
              break;
            }
          }
          if (!recursive) continue;
          LB_RETURN_IF_ERROR(
              RunRuleInto(r, -1, nullptr, limits, &total_tuples, &next_delta,
                          /*stratum_new=*/nullptr));
        }
      } else {
        std::vector<RoundTask> tasks;
        for (CompiledRule* r : stratum_rules) {
          if (r->agg.has_value()) continue;  // agg bodies are lower strata
          for (int pos : r->relation_positions) {
            const std::string& pred = r->body[static_cast<size_t>(pos)].pred;
            if (!in_stratum(pred)) continue;
            auto dit = delta.find(pred);
            if (dit == delta.end() || dit->second.empty()) continue;
            tasks.push_back(RoundTask{r, pos, &dit->second});
          }
        }
        LB_RETURN_IF_ERROR(RunRound(tasks, limits, &total_tuples, &next_delta,
                                    stratum_out));
      }
      RecordRoundDelta(next_delta);
      delta = std::move(next_delta);
    }
    if (stratum_span.enabled()) {
      stratum_span.set_args(util::StrCat(
          "\"level\":", level, ",\"rules\":", stratum_rules.size(),
          ",\"rounds\":", rounds,
          seed.has_value() ? ",\"incremental\":true" : ""));
    }

    // Stratum-new rows are disjoint from the rows already accumulated (they
    // were new in the full store, which contains everything accumulated).
    for (auto& [pred, rel] : stratum_new) {
      auto [it, fresh] = seed->try_emplace(pred, rel.arity(), pool_);
      (void)fresh;
      for (uint32_t id : rel.Rows()) {
        it->second.AppendUnchecked(rel.RowIds(id));
      }
    }
  }
  return util::OkStatus();
}

Status Evaluator::EvalQuery(CompiledRule* rule,
                            const std::function<void(const Bindings&)>& cb) {
  return EvalQueryUntil(rule, [&](const Bindings& b) {
    cb(b);
    return true;
  });
}

Status Evaluator::EvalQueryUntil(CompiledRule* rule,
                                 const std::function<bool(const Bindings&)>& cb) {
  ExecContext ctx;
  ctx.rule = rule;
  ctx.delta_pos = -1;
  ctx.delta_rel = nullptr;
  ctx.order = &rule->order_full;
  ctx.bindings.pool = pool_;
  ctx.bindings.EnsureSize(rule->vars.size());
  ctx.probe_scratch.resize(ctx.order->size());
  bool stopped = false;
  ctx.on_solution = [&]() -> Status {
    if (!cb(ctx.bindings)) {
      stopped = true;
      // Sentinel error: unwinds the enumeration, stripped below.
      return util::Internal("enumeration stopped");
    }
    return util::OkStatus();
  };
  Status st = Step(&ctx, 0);
  if (stopped) return util::OkStatus();
  return st;
}

}  // namespace lbtrust::datalog
