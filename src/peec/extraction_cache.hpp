// Two-tier extraction cache: the digest-keyed self/mutual memoization that
// used to live inside CouplingExtractor, pulled out so caches can be *shared*
// and *layered*.
//
// A cache optionally chains to a parent tier. The intended topology is the
// service's: every session owns a private tier whose parent is one shared
// read-mostly global tier. Lookups probe the private tier first, then the
// parent chain; computed values are stored into the private tier and
// *published* to the root tier, so one session's expensive extraction is
// amortized across every later session that asks for the same geometry.
//
// Correctness under sharing. Every entry is a pure function of its key: the
// mutual key carries the canonical relative pose, the quadrature options and
// the clustering options; the self key carries the model digest and the
// quadrature options. Two extractors configured differently therefore never
// alias each other's entries, no matter how the tiers are wired, and a value
// observed through any tier is bit-identical to recomputing it. Eviction and
// publication timing only affect recomputation frequency, never values.
//
// Thread safety: each tier is guarded by its own core::SharedMutex (readers
// shared, writers exclusive; contracts compiler-checked via
// src/core/thread_annotations.hpp); the parent pointer is immutable after
// construction, so probes walk the chain without global coordination. Tier
// counters (hits served by this tier / misses that fell through it) are
// relaxed atomics - monotone, never reset by eviction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/thread_annotations.hpp"

namespace emi::peec {

// Key of one cached mutual inductance: canonical pair digests, canonical
// relative pose bits, quadrature and kernel configuration. Built by
// CouplingExtractor::canonicalize; everything that can change the computed
// bits is part of the key.
struct MutualCacheKey {
  std::uint64_t digest_lo = 0;  // smaller model digest (canonical pair order)
  std::uint64_t digest_hi = 0;
  std::uint64_t tx = 0, ty = 0, tz = 0;  // bit patterns, canonical translation
  std::uint64_t rot = 0;         // bit pattern of the relative rotation (deg)
  std::uint64_t quad = 0;        // quadrature order/subdivisions
  std::uint64_t kern = 0;          // 4 with clustering on, else 0
  std::uint64_t kern_cluster = 0;  // cluster theta/leaf digest, 0 when off
  bool operator==(const MutualCacheKey&) const = default;
};

// The key indexes' hash (MutualKeyIndex): a word-wise mix of the nine
// fields. Nothing iterates an index (eviction follows insertion order, a
// batch's jobs follow pair order), so no result depends on it.
struct MutualCacheKeyHash {
  std::size_t operator()(const MutualCacheKey& k) const;
};

// Byte-wise FNV-1a over the nine fields in declaration order: the `cache`
// fault site's key for a mutual lookup, kept byte-wise so injected-miss
// patterns match older builds.
std::uint64_t mutual_key_fault_hash(const MutualCacheKey& k);

// An open-addressed index over an owner's array of keyed entries: linear
// probing over a power-of-two slot count, which the owner keeps at least
// twice its entry count. A slot holds entry number + 1, or 0 when empty, so
// indexing a key costs no node allocation. The mutual tier indexes its
// entries with it, and a mutual batch its distinct keys.
class MutualKeyIndex {
 public:
  bool empty() const { return slots_.empty(); }
  std::size_t slot_count() const { return slots_.size(); }
  // Every slot emptied; at least `min_slots` slots (and 16).
  void reset(std::size_t min_slots);
  // The slot holding `key`, whose MutualCacheKeyHash is `hash`, or the empty
  // slot where it would go. key_of(e) is entry e's key. Requires slots.
  template <typename KeyOf>
  std::size_t find(const MutualCacheKey& key, std::size_t hash, const KeyOf& key_of) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0 && !(key_of(slots_[i] - 1) == key)) i = (i + 1) & mask;
    return i;
  }
  // Entry number + 1 at `slot`, 0 when it is empty.
  std::uint32_t operator[](std::size_t slot) const { return slots_[slot]; }
  void set(std::size_t slot, std::size_t entry) {
    slots_[slot] = static_cast<std::uint32_t>(entry + 1);
  }

 private:
  std::vector<std::uint32_t> slots_;
};

// Monotone per-tier service counters: `hits` = lookups served from this
// tier's own map, `misses` = lookups that probed this tier and fell through
// (for a root tier that is the compute count it triggered).
struct CacheTierStats {
  std::uint64_t self_hits = 0;
  std::uint64_t self_misses = 0;
  std::uint64_t mutual_hits = 0;
  std::uint64_t mutual_misses = 0;
};

class ExtractionCache {
 public:
  // Mutual-tier capacity. Insertion past the cap evicts the oldest-inserted
  // half (see store_mutual); identical policy and constant as the pre-split
  // per-extractor cache.
  static constexpr std::size_t kMutualCap = 1u << 16;

  // A parentless cache is a self-contained tier (the pre-split behavior).
  // With a parent, lookups fall through to it and computed values are
  // published to the *root* of the chain.
  explicit ExtractionCache(std::shared_ptr<ExtractionCache> parent = nullptr)
      : parent_(std::move(parent)) {}

  ExtractionCache(const ExtractionCache&) = delete;
  ExtractionCache& operator=(const ExtractionCache&) = delete;

  const std::shared_ptr<ExtractionCache>& parent() const { return parent_; }

  // --- self tier ---------------------------------------------------------
  // Probe this tier, then the parent chain. Counts one hit on the serving
  // tier and one miss on every tier the probe fell through.
  std::optional<double> lookup_self(std::uint64_t key) const;
  // Store into this tier and publish to the chain's root (no-op when this
  // tier is the root). Values are pure functions of keys, so a concurrent
  // duplicate store writes identical bits.
  void store_self(std::uint64_t key, double value);

  // --- mutual tier -------------------------------------------------------
  // Batched probe under one shared lock per tier: out[i]/found[i] filled for
  // every key not already marked found that a tier serves; other slots are
  // left untouched. Counts like lookup_self, one probe per key per tier.
  void lookup_mutual_batch(std::span<const MutualCacheKey> keys,
                           std::span<double> out, std::span<char> found) const;
  // Bulk store under one unique lock per tier (this tier + the root). Each
  // tier sizes its storage for the whole batch before the first insert.
  void store_mutual_batch(std::span<const MutualCacheKey> keys,
                          std::span<const double> values);
  // One-key calls of the two batch forms.
  std::optional<double> lookup_mutual(const MutualCacheKey& key) const;
  void store_mutual(const MutualCacheKey& key, double value);

  CacheTierStats stats() const;

 private:
  // Probe only this tier's own self map (one shared-lock round), counting
  // the outcome on this tier.
  std::optional<double> probe_self_local(std::uint64_t key) const;
  struct MutualEntry {
    MutualCacheKey key;
    double value;
  };
  // Requires mutual_mu_ held and a non-empty index: the index position of
  // `key`'s entry, or the empty position where it would go.
  std::size_t mutual_slot_locked(const MutualCacheKey& key) const
      EMI_REQUIRES_SHARED(mutual_mu_);
  // Requires mutual_mu_ held: the entry holding `key`, or null.
  const MutualEntry* find_mutual_locked(const MutualCacheKey& key) const
      EMI_REQUIRES_SHARED(mutual_mu_);
  // Requires mutual_mu_ held exclusively; evict-oldest-half at capacity.
  void store_mutual_locked(const MutualCacheKey& key, double value)
      EMI_REQUIRES(mutual_mu_);
  // Requires mutual_mu_ held exclusively: an index of at least
  // `min_slots` slots (a power of two) over mutual_entries_.
  void reindex_mutual_locked(std::size_t min_slots) EMI_REQUIRES(mutual_mu_);
  // Requires mutual_mu_ held exclusively: room for `more` further entries
  // (up to the cap) without a reallocation or a reindex.
  void reserve_mutual_locked(std::size_t more) EMI_REQUIRES(mutual_mu_);
  ExtractionCache* root();

  std::shared_ptr<ExtractionCache> parent_;
  mutable core::SharedMutex self_mu_;
  std::unordered_map<std::uint64_t, double> self_cache_ EMI_GUARDED_BY(self_mu_);
  mutable core::SharedMutex mutual_mu_;
  // The mutual tier is flat: its entries in insertion order (the eviction
  // order), plus an index over them. Storing a key costs no node
  // allocation and dropping the tier frees two arrays.
  std::vector<MutualEntry> mutual_entries_ EMI_GUARDED_BY(mutual_mu_);
  MutualKeyIndex mutual_index_ EMI_GUARDED_BY(mutual_mu_);
  mutable std::atomic<std::uint64_t> self_hits_{0};
  mutable std::atomic<std::uint64_t> self_misses_{0};
  mutable std::atomic<std::uint64_t> mutual_hits_{0};
  mutable std::atomic<std::uint64_t> mutual_misses_{0};
};

}  // namespace emi::peec
