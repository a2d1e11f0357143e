#ifndef LBTRUST_DATALOG_RELATION_H_
#define LBTRUST_DATALOG_RELATION_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "datalog/value.h"
#include "datalog/value_pool.h"

namespace lbtrust::datalog {

/// Set-semantics tuple store over interned values, in one partition. Rows
/// live in one flat, arity-strided `ValueId` buffer, and a row id is the
/// row's dense position in it; the primary set and the per-mask hash
/// indexes key on 64-bit hashes of id spans (candidates are verified with
/// id compares, so correctness never depends on hash collision freedom).
/// The evaluator asks for "all rows whose columns {i: mask bit i set} equal
/// this key"; by default the first such query builds the index lazily and
/// later inserts extend it on demand.
///
/// ## Threading model
///
/// A relation has two read modes:
///
///  - **Lazy (default).** `LookupIds`/`MatchesIds` build and extend
///    `indexes_` on demand. This mutates state from `const` methods and is
///    therefore strictly single-threaded: one thread at a time may touch
///    the relation (sequential hand-off between threads is fine). Debug
///    builds detect concurrent lazy probes and abort.
///  - **Frozen.** `BuildIndex(mask)` materializes an index explicitly;
///    `FreezeForRead()` then locks the relation: every mutation hard-fails
///    and probes require their index to be pre-built, so `LookupIds`,
///    `MatchesIds`, `ContainsIds` and row reads touch no mutable state and
///    are safe from any number of concurrent readers. `Thaw()` returns to
///    lazy mode. The parallel evaluator freezes every relation a worker
///    can reach for the duration of a round.
///
/// The `Tuple`-taking methods are the boundary API: they intern (inserts)
/// or probe the pool without inserting (lookups), so a lookup for a value
/// the pool has never seen is a guaranteed miss instead of pool growth.
/// The `...Ids` methods are the engine hot path; their ids MUST come from
/// this relation's pool.
class Relation {
 public:
  /// Hard cap on columns: probe masks and projection hashes pack "column i
  /// is bound" into bit i of a uint64_t, so column indexes beyond 63 would
  /// shift out of range (UB). Enforced with kInvalidArgument at the API
  /// boundaries (Workspace::EnsurePredicate, CompileRule) and as a hard
  /// failure here as the last line of defense.
  static constexpr size_t kMaxArity = 64;

  /// `pool == nullptr` uses the process-wide ValuePool::Default() (for
  /// standalone relations in tests and tools); the engine always passes a
  /// workspace-scoped pool so ids stay comparable across its relations.
  explicit Relation(size_t arity, ValuePool* pool = nullptr);

  /// Move-only: the debug concurrency guard is not copyable, and nothing
  /// in the engine copies relations.
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  size_t arity() const { return arity_; }
  size_t size() const { return row_hash_.size(); }
  bool empty() const { return row_hash_.empty(); }
  ValuePool* pool() const { return pool_; }

  /// Returns true if the tuple was new.
  bool Insert(Tuple t);
  bool InsertIds(const ValueId* row);
  /// InsertIds with the row hash precomputed via RowHash() (the parallel
  /// evaluator hashes rows on worker threads).
  bool InsertIdsHashed(const ValueId* row, uint64_t hash);
  /// Appends a row WITHOUT the duplicate check or primary-set bookkeeping.
  /// For delta/seed relations whose uniqueness the caller already
  /// guarantees (the evaluator only feeds them rows that were new in the
  /// full store). Contains/Erase are unreliable on such relations; scans
  /// and mask lookups (which read only row storage) work normally. Mixing
  /// with checked mutations hard-fails in every build mode: the relation
  /// must either be append-only from birth or never see AppendUnchecked.
  void AppendUnchecked(const ValueId* row);
  bool Contains(const Tuple& t) const;
  bool ContainsIds(const ValueId* row) const;
  /// ContainsIds with the row hash precomputed via RowHash().
  bool ContainsIdsHashed(const ValueId* row, uint64_t hash) const;
  /// Removes a tuple (swap-and-pop; built indexes are patched in place, so
  /// removal cost is O(indexes), not O(rows * indexes)). Returns true if
  /// present.
  bool Erase(const Tuple& t);
  bool EraseIds(const ValueId* row);
  void Clear();

  /// The primary-set hash of a row (what InsertIdsHashed/ContainsIdsHashed
  /// expect). Pure function of the ids; safe from any thread.
  uint64_t RowHash(const ValueId* row) const { return HashRow(row); }

  /// The ids of row `i` (arity() consecutive entries). Invalidated by
  /// Insert/Erase/Clear.
  const ValueId* RowIds(size_t i) const { return data_.data() + i * arity_; }
  /// Materializes row `i` as a boundary tuple.
  Tuple RowTuple(size_t i) const {
    return MaterializeTuple(*pool_, RowIds(i), arity_);
  }
  Value ValueAt(size_t row, size_t col) const {
    return pool_->Get(RowIds(row)[col]);
  }

  /// Row-id enumeration in storage order: `for (uint32_t id : rel.Rows())`.
  /// The range is [0, size()) as of the call, so rows appended while
  /// enumerating are not visited.
  class RowIterator {
   public:
    explicit RowIterator(uint32_t id) : id_(id) {}
    uint32_t operator*() const { return id_; }
    RowIterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator!=(const RowIterator& o) const { return id_ != o.id_; }

   private:
    uint32_t id_;
  };
  struct RowRange {
    uint32_t rows;
    RowIterator begin() const { return RowIterator(0); }
    RowIterator end() const { return RowIterator(rows); }
  };
  RowRange Rows() const { return RowRange{static_cast<uint32_t>(size())}; }

  /// True if row `row`'s columns selected by `mask` equal `key` (bound
  /// columns only, in column order). Read-only; used by the parallel
  /// evaluator's partitioned first-literal scans.
  bool RowMatchesKey(uint32_t row, uint64_t mask, const ValueId* key) const;

  /// Appends the row ids matching `key` on the columns set in `mask`
  /// (LSB = column 0) to `out`. `key` holds only the bound columns, in
  /// column order — callers keep a scratch buffer, so a probe allocates
  /// nothing beyond `out`'s growth. mask == 0 is invalid (scan instead).
  void LookupIds(uint64_t mask, const ValueId* key,
                 std::vector<uint32_t>* out) const;

  /// True if at least one row matches (wildcard semantics for negation).
  /// mask == 0 asks "any row at all?".
  bool MatchesIds(uint64_t mask, const ValueId* key) const;

  /// Builds (or incrementally extends) the index for `mask` so that a
  /// frozen relation can serve LookupIds/MatchesIds on it without
  /// mutating anything. Idempotent; must not be called while frozen.
  void BuildIndex(uint64_t mask);

  /// Enters frozen read-only mode: mutations hard-fail and index probes
  /// require a prior BuildIndex for their mask. Concurrent readers are
  /// then race-free by construction.
  void FreezeForRead() { frozen_ = true; }
  /// Leaves frozen mode (single-threaded again).
  void Thaw() { frozen_ = false; }
  bool frozen() const { return frozen_; }

  /// Boundary conveniences over the id probes (tests, tools).
  std::vector<uint32_t> Lookup(uint64_t mask, const Tuple& key) const;
  bool Matches(uint64_t mask, const Tuple& key) const;

 private:
  struct Index {
    /// key-span hash -> row ids whose projection hashes there.
    std::unordered_map<uint64_t, std::vector<uint32_t>> map;
    /// Rows [0, built_upto) are indexed (lazily extended).
    size_t built_upto = 0;
  };

  static constexpr uint32_t kEmptySlot = 0xFFFFFFFF;
  static constexpr uint32_t kTombstone = 0xFFFFFFFE;

  /// Always-on invariant failure: message to stderr, then abort. The
  /// append-only and frozen guards must hold in Release too — violating
  /// them silently corrupts set semantics.
  [[noreturn]] void Fail(const char* msg) const;

  uint64_t HashRow(const ValueId* row) const;
  uint64_t HashProjected(const ValueId* row, uint64_t mask) const;
  static uint64_t HashKeySpan(const ValueId* key, size_t n);
  bool RowEquals(uint32_t row, const ValueId* ids) const;
  void ExtendIndex(uint64_t mask, Index* index) const;
  /// Frozen-mode index fetch: hard-fails unless BuildIndex(mask) ran and
  /// covers every row.
  const Index* FrozenIndex(uint64_t mask) const;
  /// Lazy-mode get-or-build-and-extend (single-threaded contract).
  const Index* LazyIndex(uint64_t mask) const;
  /// Projects the boundary key into ids via pool Find; false when some key
  /// value was never interned (no row can match).
  bool ProjectKey(const Tuple& key, IdTuple* out) const;

  /// Open-addressing primary set helpers.
  void GrowPrimary(size_t min_capacity);
  /// Slot index holding row `row` (which must be present), located via its
  /// cached hash.
  size_t FindPrimarySlot(uint32_t row) const;

  size_t arity_;
  ValuePool* pool_;
  std::vector<ValueId> data_;  ///< arity-strided row storage
  /// Set membership: open-addressing table of row ids (linear probing,
  /// power-of-two capacity, tombstoned deletes) — one flat allocation, no
  /// per-row nodes. Empty for AppendUnchecked-only (delta) relations.
  std::vector<uint32_t> primary_slots_;
  std::vector<uint64_t> row_hash_;  ///< cached HashRow per row
  size_t primary_used_ = 0;         ///< occupied slots incl. tombstones
  /// Set by the first AppendUnchecked: the relation has no primary-set
  /// bookkeeping and must never see checked mutations again (hard failure
  /// in InsertIds/EraseIds — mixing would silently break set semantics).
  bool append_only_ = false;
  /// FreezeForRead() mode: mutations hard-fail, probes are read-only.
  bool frozen_ = false;
  mutable std::unordered_map<uint64_t, Index> indexes_;
#ifndef NDEBUG
  /// Debug detector for the lazy single-threaded contract: entered on
  /// every lazy (non-frozen) index acquisition; a second concurrent entry
  /// means two threads are racing the lazy build.
  mutable std::atomic<int> lazy_probes_{0};
#endif
};

}  // namespace lbtrust::datalog

#endif  // LBTRUST_DATALOG_RELATION_H_
