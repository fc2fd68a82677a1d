#include "src/peec/extraction_cache.hpp"

#include <array>

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
  std::size_t unserved = 0;
  {
    core::SharedReaderLock lock(mutual_mu_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (found[i]) continue;
      if (const auto it = mutual_cache_.find(keys[i]); it != mutual_cache_.end()) {
        out[i] = it->second;
        found[i] = 1;
        mutual_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        mutual_misses_.fetch_add(1, std::memory_order_relaxed);
        ++unserved;
      }
    }
  }
  if (unserved > 0 && parent_ != nullptr) {
    parent_->lookup_mutual_batch(keys, out, found);
  }
}

void ExtractionCache::store_mutual_locked(const MutualCacheKey& key, double value) {
  if (mutual_cache_.size() >= kMutualCap) {
    // Evict the oldest-inserted half rather than clearing outright: the
    // working set of a long sweep survives, and entries are pure functions
    // of their keys, so eviction timing only affects recomputation
    // frequency, never values. Counters are untouched - they stay monotone
    // across evictions.
    const std::size_t evict = mutual_order_.size() / 2;
    for (std::size_t i = 0; i < evict; ++i) mutual_cache_.erase(mutual_order_[i]);
    mutual_order_.erase(mutual_order_.begin(),
                        mutual_order_.begin() + static_cast<std::ptrdiff_t>(evict));
  }
  if (mutual_cache_.emplace(key, value).second) mutual_order_.push_back(key);
}

void ExtractionCache::store_mutual(const MutualCacheKey& key, double value) {
  store_mutual_batch({&key, 1}, {&value, 1});
}

void ExtractionCache::store_mutual_batch(std::span<const MutualCacheKey> keys,
                                         std::span<const double> values) {
  {
    core::SharedMutexLock lock(mutual_mu_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      store_mutual_locked(keys[i], values[i]);
    }
  }
  if (ExtractionCache* r = root(); r != this) {
    core::SharedMutexLock lock(r->mutual_mu_);
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
