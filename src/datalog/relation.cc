#include "datalog/relation.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/strings.h"

namespace lbtrust::datalog {

namespace {

/// Removes one occurrence of `value` from `ids` (swap-and-pop).
void RemoveId(std::vector<uint32_t>* ids, uint32_t value) {
  auto pos = std::find(ids->begin(), ids->end(), value);
  if (pos != ids->end()) {
    *pos = ids->back();
    ids->pop_back();
  }
}

#ifndef NDEBUG
/// RAII entry/exit marker for the lazy-probe single-thread contract.
class LazyProbeScope {
 public:
  explicit LazyProbeScope(std::atomic<int>* depth) : depth_(depth) {
    if (depth_->fetch_add(1, std::memory_order_acq_rel) != 0) {
      std::fprintf(stderr,
                   "lbtrust fatal: concurrent lazy index probes on one "
                   "Relation (BuildIndex + FreezeForRead before sharing it "
                   "across threads)\n");
      std::abort();
    }
  }
  ~LazyProbeScope() { depth_->fetch_sub(1, std::memory_order_acq_rel); }

 private:
  std::atomic<int>* depth_;
};
#endif

}  // namespace

void Relation::Fail(const char* msg) const {
  std::fprintf(stderr, "lbtrust fatal: %s (relation arity=%zu rows=%zu)\n",
               msg, arity_, size());
  std::abort();
}

Relation::Relation(size_t arity, ValuePool* pool)
    : arity_(arity), pool_(pool != nullptr ? pool : ValuePool::Default()) {
  if (arity_ > kMaxArity) {
    Fail("relation arity exceeds kMaxArity (64); callers must validate "
         "before construction");
  }
}

Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      pool_(other.pool_),
      data_(std::move(other.data_)),
      primary_slots_(std::move(other.primary_slots_)),
      row_hash_(std::move(other.row_hash_)),
      primary_used_(other.primary_used_),
      append_only_(other.append_only_),
      frozen_(other.frozen_),
      indexes_(std::move(other.indexes_)) {
  other.primary_used_ = 0;
  other.append_only_ = false;
  other.frozen_ = false;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  arity_ = other.arity_;
  pool_ = other.pool_;
  data_ = std::move(other.data_);
  primary_slots_ = std::move(other.primary_slots_);
  row_hash_ = std::move(other.row_hash_);
  primary_used_ = other.primary_used_;
  append_only_ = other.append_only_;
  frozen_ = other.frozen_;
  indexes_ = std::move(other.indexes_);
  other.primary_used_ = 0;
  other.append_only_ = false;
  other.frozen_ = false;
  return *this;
}

uint64_t Relation::HashRow(const ValueId* row) const {
  uint64_t h = 0x811C9DC5ULL;
  for (size_t i = 0; i < arity_; ++i) h = util::HashCombine(h, row[i].Hash());
  return h;
}

uint64_t Relation::HashProjected(const ValueId* row, uint64_t mask) const {
  uint64_t h = 0x811C9DC5ULL;
  for (size_t i = 0; i < arity_; ++i) {
    if (mask & (uint64_t{1} << i)) h = util::HashCombine(h, row[i].Hash());
  }
  return h;
}

uint64_t Relation::HashKeySpan(const ValueId* key, size_t n) {
  uint64_t h = 0x811C9DC5ULL;
  for (size_t i = 0; i < n; ++i) h = util::HashCombine(h, key[i].Hash());
  return h;
}

bool Relation::RowEquals(uint32_t row, const ValueId* ids) const {
  // arity 0: the empty row equals itself (and memcmp must not see null).
  if (arity_ == 0) return true;
  return std::memcmp(RowIds(row), ids, arity_ * sizeof(ValueId)) == 0;
}

bool Relation::RowMatchesKey(uint32_t row, uint64_t mask,
                             const ValueId* key) const {
  const ValueId* r = RowIds(row);
  size_t k = 0;
  for (size_t i = 0; i < arity_; ++i) {
    if (mask & (uint64_t{1} << i)) {
      if (r[i] != key[k++]) return false;
    }
  }
  return true;
}

// --- Primary set (open addressing) -----------------------------------------

void Relation::GrowPrimary(size_t min_capacity) {
  size_t cap = 16;
  while (cap < min_capacity * 2) cap <<= 1;
  primary_slots_.assign(cap, kEmptySlot);
  primary_used_ = 0;
  const size_t mask = cap - 1;
  const size_t nrows = size();
  for (size_t i = 0; i < nrows; ++i) {
    size_t slot = static_cast<size_t>(row_hash_[i]) & mask;
    while (primary_slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    primary_slots_[slot] = static_cast<uint32_t>(i);
    ++primary_used_;
  }
}

size_t Relation::FindPrimarySlot(uint32_t row) const {
  const size_t mask = primary_slots_.size() - 1;
  size_t slot = static_cast<size_t>(row_hash_[row]) & mask;
  while (primary_slots_[slot] != row) slot = (slot + 1) & mask;
  return slot;
}

bool Relation::InsertIds(const ValueId* row) {
  return InsertIdsHashed(row, HashRow(row));
}

bool Relation::InsertIdsHashed(const ValueId* row, uint64_t h) {
  if (frozen_) Fail("InsertIds on a frozen relation");
  if (append_only_) Fail("checked insert into an AppendUnchecked relation");
  if ((primary_used_ + 1) * 4 >= primary_slots_.size() * 3) {
    GrowPrimary(size() + 1);
  }
  const size_t mask = primary_slots_.size() - 1;
  size_t slot = static_cast<size_t>(h) & mask;
  size_t insert_at = SIZE_MAX;
  for (;;) {
    uint32_t occupant = primary_slots_[slot];
    if (occupant == kEmptySlot) break;
    if (occupant == kTombstone) {
      if (insert_at == SIZE_MAX) insert_at = slot;
    } else if (row_hash_[occupant] == h && RowEquals(occupant, row)) {
      return false;
    }
    slot = (slot + 1) & mask;
  }
  if (insert_at == SIZE_MAX) {
    insert_at = slot;
    ++primary_used_;  // consumed a fresh empty slot (tombstone reuse is free)
  }
  primary_slots_[insert_at] = static_cast<uint32_t>(size());
  row_hash_.push_back(h);
  if (arity_ > 0) data_.insert(data_.end(), row, row + arity_);
  // Existing indexes are extended lazily at next lookup (built_upto).
  return true;
}

void Relation::AppendUnchecked(const ValueId* row) {
  if (frozen_) Fail("AppendUnchecked on a frozen relation");
  if (!append_only_ && !primary_slots_.empty()) {
    Fail("AppendUnchecked on a relation with checked rows (mixing breaks "
         "set semantics)");
  }
  append_only_ = true;
  row_hash_.push_back(0);  // never consulted: no primary entry exists
  if (arity_ > 0) data_.insert(data_.end(), row, row + arity_);
}

bool Relation::Insert(Tuple t) {
  if (t.size() != arity_) return false;  // boundary guard: no OOB stride
  IdTuple ids = InternTuple(pool_, t);
  return InsertIds(ids.data());
}

bool Relation::ContainsIds(const ValueId* row) const {
  return ContainsIdsHashed(row, HashRow(row));
}

bool Relation::ContainsIdsHashed(const ValueId* row, uint64_t h) const {
  if (primary_slots_.empty()) return false;
  const size_t mask = primary_slots_.size() - 1;
  size_t slot = static_cast<size_t>(h) & mask;
  for (;;) {
    uint32_t occupant = primary_slots_[slot];
    if (occupant == kEmptySlot) return false;
    if (occupant != kTombstone && row_hash_[occupant] == h &&
        RowEquals(occupant, row)) {
      return true;
    }
    slot = (slot + 1) & mask;
  }
}

bool Relation::Contains(const Tuple& t) const {
  if (t.size() != arity_) return false;
  IdTuple ids;
  if (!ProjectKey(t, &ids)) return false;
  return ContainsIds(ids.data());
}

bool Relation::EraseIds(const ValueId* row) {
  if (frozen_) Fail("EraseIds on a frozen relation");
  if (append_only_) Fail("checked erase from an AppendUnchecked relation");
  if (primary_slots_.empty()) return false;
  const uint64_t h = HashRow(row);
  const size_t pmask = primary_slots_.size() - 1;
  size_t slot = static_cast<size_t>(h) & pmask;
  uint32_t idx = kEmptySlot;
  for (;;) {
    uint32_t occupant = primary_slots_[slot];
    if (occupant == kEmptySlot) return false;
    if (occupant != kTombstone && row_hash_[occupant] == h &&
        RowEquals(occupant, row)) {
      idx = occupant;
      break;
    }
    slot = (slot + 1) & pmask;
  }

  const uint32_t last = static_cast<uint32_t>(size()) - 1;
  const ValueId* moved = RowIds(last);
  // Patch every built index before touching row storage: remove the erased
  // row id and re-home the row that swap-and-pop moves from `last` to
  // `idx`. An index only knows rows below built_upto; rows at or above it
  // are picked up by the next ExtendIndex.
  for (auto& [imask, index] : indexes_) {
    const bool erased_indexed = index.built_upto > idx;
    const bool moved_indexed = index.built_upto > last;
    if (erased_indexed) {
      auto bucket = index.map.find(HashProjected(row, imask));
      if (bucket != index.map.end()) {
        RemoveId(&bucket->second, idx);
        if (bucket->second.empty()) index.map.erase(bucket);
      }
    }
    if (idx != last) {
      uint64_t mh = HashProjected(moved, imask);
      if (moved_indexed) {
        auto bucket = index.map.find(mh);
        if (bucket != index.map.end()) {
          auto pos =
              std::find(bucket->second.begin(), bucket->second.end(), last);
          if (pos != bucket->second.end()) *pos = idx;
        }
      } else if (erased_indexed) {
        // The moved row lands below built_upto without ever having been
        // indexed; index it now since ExtendIndex will not revisit idx.
        index.map[mh].push_back(idx);
      }
    }
    if (index.built_upto > last) index.built_upto = last;
  }

  primary_slots_[slot] = kTombstone;
  if (idx != last) {
    // Re-home `last` under its (unchanged) hash, then move its storage.
    primary_slots_[FindPrimarySlot(last)] = idx;
    row_hash_[idx] = row_hash_[last];
    if (arity_ > 0) {
      std::memcpy(data_.data() + size_t{idx} * arity_, moved,
                  arity_ * sizeof(ValueId));
    }
  }
  row_hash_.pop_back();
  data_.resize(data_.size() - arity_);
  return true;
}

bool Relation::Erase(const Tuple& t) {
  if (t.size() != arity_) return false;
  IdTuple ids;
  if (!ProjectKey(t, &ids)) return false;
  return EraseIds(ids.data());
}

void Relation::Clear() {
  if (frozen_) Fail("Clear on a frozen relation");
  append_only_ = false;
  data_.clear();
  primary_slots_.clear();
  row_hash_.clear();
  primary_used_ = 0;
  indexes_.clear();
}

// --- Mask indexes -----------------------------------------------------------

void Relation::ExtendIndex(uint64_t mask, Index* index) const {
  const size_t nrows = size();
  // First build (or rebuild after the map drained): reserve buckets from
  // the row count so freeze-prep on wide relations extends without rehash
  // churn.
  if (index->map.empty() && nrows > 0) index->map.reserve(nrows);
  for (size_t i = index->built_upto; i < nrows; ++i) {
    index->map[HashProjected(RowIds(i), mask)].push_back(
        static_cast<uint32_t>(i));
  }
  index->built_upto = nrows;
}

void Relation::BuildIndex(uint64_t mask) {
  if (frozen_) Fail("BuildIndex on a frozen relation (thaw first)");
  Index& index = indexes_[mask];
  if (index.built_upto < size()) ExtendIndex(mask, &index);
}

const Relation::Index* Relation::FrozenIndex(uint64_t mask) const {
  auto it = indexes_.find(mask);
  if (it == indexes_.end() || it->second.built_upto != size()) {
    Fail("index probe on a frozen relation without a pre-built index "
         "(call BuildIndex(mask) before FreezeForRead)");
  }
  return &it->second;
}

const Relation::Index* Relation::LazyIndex(uint64_t mask) const {
#ifndef NDEBUG
  LazyProbeScope scope(&lazy_probes_);
#endif
  Index& index = indexes_[mask];
  if (index.built_upto < size()) ExtendIndex(mask, &index);
  return &index;
}

void Relation::LookupIds(uint64_t mask, const ValueId* key,
                         std::vector<uint32_t>* out) const {
  const Index* index = frozen_ ? FrozenIndex(mask) : LazyIndex(mask);
  auto it = index->map.find(
      HashKeySpan(key, static_cast<size_t>(__builtin_popcountll(mask))));
  if (it == index->map.end()) return;
  for (uint32_t id : it->second) {
    if (RowMatchesKey(id, mask, key)) out->push_back(id);
  }
}

bool Relation::MatchesIds(uint64_t mask, const ValueId* key) const {
  if (mask == 0) return !empty();
  const Index* index = frozen_ ? FrozenIndex(mask) : LazyIndex(mask);
  auto it = index->map.find(
      HashKeySpan(key, static_cast<size_t>(__builtin_popcountll(mask))));
  if (it == index->map.end()) return false;
  for (uint32_t id : it->second) {
    if (RowMatchesKey(id, mask, key)) return true;
  }
  return false;
}

bool Relation::ProjectKey(const Tuple& key, IdTuple* out) const {
  out->reserve(key.size());
  for (const Value& v : key) {
    ValueId id;
    if (!pool_->Find(v, &id)) return false;
    out->push_back(id);
  }
  return true;
}

std::vector<uint32_t> Relation::Lookup(uint64_t mask, const Tuple& key) const {
  std::vector<uint32_t> out;
  if (key.size() != static_cast<size_t>(__builtin_popcountll(mask))) {
    return out;  // boundary guard: key must cover exactly the bound columns
  }
  IdTuple ids;
  if (!ProjectKey(key, &ids)) return out;
  LookupIds(mask, ids.data(), &out);
  return out;
}

bool Relation::Matches(uint64_t mask, const Tuple& key) const {
  if (mask == 0) return !empty();
  if (key.size() != static_cast<size_t>(__builtin_popcountll(mask))) {
    return false;
  }
  IdTuple ids;
  if (!ProjectKey(key, &ids)) return false;
  return MatchesIds(mask, ids.data());
}

}  // namespace lbtrust::datalog
