#include "src/peec/extraction_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace emi::peec {

namespace {

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::array<std::uint64_t, 9> key_fields(const MutualCacheKey& k) {
  return {k.digest_lo, k.digest_hi, k.tx, k.ty, k.tz, k.rot, k.quad, k.kern, k.kern_cluster};
}

}  // namespace

std::size_t MutualCacheKeyHash::operator()(const MutualCacheKey& k) const {
  // One multiply-xorshift round per field; the shift folds the high bits,
  // where the pose fields' doubles differ, into the low ones.
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t v : key_fields(k)) {
    h = (h ^ v) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  }
  return static_cast<std::size_t>(h);
}

std::uint64_t mutual_key_fault_hash(const MutualCacheKey& k) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t v : key_fields(k)) h = fnv1a(h, v);
  return h;
}

void MutualKeyIndex::reset(std::size_t min_slots) {
  slots_.assign(std::bit_ceil(std::max<std::size_t>(min_slots, 16)), 0);
}

ExtractionCache* ExtractionCache::root() {
  ExtractionCache* c = this;
  while (c->parent_ != nullptr) c = c->parent_.get();
  return c;
}

std::optional<double> ExtractionCache::probe_self_local(std::uint64_t key) const {
  {
    core::SharedReaderLock lock(self_mu_);
    if (const auto it = self_cache_.find(key); it != self_cache_.end()) {
      self_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  self_misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::optional<double> ExtractionCache::lookup_self(std::uint64_t key) const {
  for (const ExtractionCache* c = this; c != nullptr; c = c->parent_.get()) {
    if (const std::optional<double> v = c->probe_self_local(key)) return v;
  }
  return std::nullopt;
}

void ExtractionCache::store_self(std::uint64_t key, double value) {
  {
    core::SharedMutexLock lock(self_mu_);
    self_cache_.emplace(key, value);
  }
  if (ExtractionCache* r = root(); r != this) {
    core::SharedMutexLock lock(r->self_mu_);
    r->self_cache_.emplace(key, value);
  }
}

std::optional<double> ExtractionCache::lookup_mutual(const MutualCacheKey& key) const {
  double value = 0.0;
  char found = 0;
  lookup_mutual_batch({&key, 1}, {&value, 1}, {&found, 1});
  if (!found) return std::nullopt;
  return value;
}

void ExtractionCache::lookup_mutual_batch(std::span<const MutualCacheKey> keys,
                                          std::span<double> out,
                                          std::span<char> found) const {
  // One shared-lock round per tier: serve what this tier has, let the rest
  // fall through the chain. Counters see exactly one hit-or-miss per key per
  // probed tier, same as key-at-a-time lookups.
  std::uint64_t hits = 0;
  std::uint64_t unserved = 0;
  {
    core::SharedReaderLock lock(mutual_mu_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (found[i]) continue;
      if (const MutualEntry* e = find_mutual_locked(keys[i])) {
        out[i] = e->value;
        found[i] = 1;
        ++hits;
      } else {
        ++unserved;
      }
    }
  }
  if (hits > 0) mutual_hits_.fetch_add(hits, std::memory_order_relaxed);
  if (unserved > 0) mutual_misses_.fetch_add(unserved, std::memory_order_relaxed);
  if (unserved > 0 && parent_ != nullptr) {
    parent_->lookup_mutual_batch(keys, out, found);
  }
}

std::size_t ExtractionCache::mutual_slot_locked(const MutualCacheKey& key) const {
  return mutual_index_.find(key, MutualCacheKeyHash{}(key),
                            [&](std::size_t e) -> const MutualCacheKey& {
                              return mutual_entries_[e].key;
                            });
}

const ExtractionCache::MutualEntry* ExtractionCache::find_mutual_locked(
    const MutualCacheKey& key) const {
  if (mutual_index_.empty()) return nullptr;
  const std::uint32_t slot = mutual_index_[mutual_slot_locked(key)];
  return slot == 0 ? nullptr : &mutual_entries_[slot - 1];
}

void ExtractionCache::reindex_mutual_locked(std::size_t min_slots) {
  mutual_index_.reset(min_slots);
  for (std::size_t e = 0; e < mutual_entries_.size(); ++e) {
    mutual_index_.set(mutual_slot_locked(mutual_entries_[e].key), e);
  }
}

void ExtractionCache::reserve_mutual_locked(std::size_t more) {
  // Geometric growth, so a run of small batches does not reallocate on
  // every one of them.
  const std::size_t want = std::min(mutual_entries_.size() + more, kMutualCap);
  if (want > mutual_entries_.capacity()) {
    mutual_entries_.reserve(std::min(std::max(want, 2 * mutual_entries_.capacity()), kMutualCap));
  }
  if (2 * want > mutual_index_.slot_count()) {
    reindex_mutual_locked(std::max(2 * want, 2 * mutual_index_.slot_count()));
  }
}

void ExtractionCache::store_mutual_locked(const MutualCacheKey& key, double value) {
  if (mutual_entries_.size() >= kMutualCap) {
    // Evict the oldest-inserted half rather than clearing outright: the
    // working set of a long sweep survives, and entries are pure functions
    // of their keys, so eviction timing only affects recomputation
    // frequency, never values. Counters are untouched - they stay monotone
    // across evictions.
    const std::size_t evict = mutual_entries_.size() / 2;
    mutual_entries_.erase(mutual_entries_.begin(),
                          mutual_entries_.begin() + static_cast<std::ptrdiff_t>(evict));
    reindex_mutual_locked(mutual_index_.slot_count());
  }
  reserve_mutual_locked(1);
  const std::size_t slot = mutual_slot_locked(key);
  if (mutual_index_[slot] != 0) return;
  mutual_index_.set(slot, mutual_entries_.size());
  mutual_entries_.push_back({key, value});
}

void ExtractionCache::store_mutual(const MutualCacheKey& key, double value) {
  store_mutual_batch({&key, 1}, {&value, 1});
}

void ExtractionCache::store_mutual_batch(std::span<const MutualCacheKey> keys,
                                         std::span<const double> values) {
  {
    core::SharedMutexLock lock(mutual_mu_);
    reserve_mutual_locked(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      store_mutual_locked(keys[i], values[i]);
    }
  }
  if (ExtractionCache* r = root(); r != this) {
    core::SharedMutexLock lock(r->mutual_mu_);
    r->reserve_mutual_locked(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      r->store_mutual_locked(keys[i], values[i]);
    }
  }
}

CacheTierStats ExtractionCache::stats() const {
  CacheTierStats s;
  s.self_hits = self_hits_.load(std::memory_order_relaxed);
  s.self_misses = self_misses_.load(std::memory_order_relaxed);
  s.mutual_hits = mutual_hits_.load(std::memory_order_relaxed);
  s.mutual_misses = mutual_misses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace emi::peec
