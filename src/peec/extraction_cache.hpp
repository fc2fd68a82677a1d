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

// The maps' hash: a word-wise mix of the nine fields. Nothing iterates the
// maps (eviction follows insertion order), so no result depends on it.
struct MutualCacheKeyHash {
  std::size_t operator()(const MutualCacheKey& k) const;
};

// Byte-wise FNV-1a over the nine fields in declaration order: the `cache`
// fault site's key for a mutual lookup, kept byte-wise so injected-miss
// patterns match older builds.
std::uint64_t mutual_key_fault_hash(const MutualCacheKey& k);

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
  // Bulk store under one unique lock per tier (this tier + the root).
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
  // Requires mutual_mu_ held exclusively; evict-oldest-half at capacity.
  void store_mutual_locked(const MutualCacheKey& key, double value)
      EMI_REQUIRES(mutual_mu_);
  ExtractionCache* root();

  std::shared_ptr<ExtractionCache> parent_;
  mutable core::SharedMutex self_mu_;
  std::unordered_map<std::uint64_t, double> self_cache_ EMI_GUARDED_BY(self_mu_);
  mutable core::SharedMutex mutual_mu_;
  std::unordered_map<MutualCacheKey, double, MutualCacheKeyHash> mutual_cache_
      EMI_GUARDED_BY(mutual_mu_);
  // Insertion order, for eviction.
  std::vector<MutualCacheKey> mutual_order_ EMI_GUARDED_BY(mutual_mu_);
  mutable std::atomic<std::uint64_t> self_hits_{0};
  mutable std::atomic<std::uint64_t> self_misses_{0};
  mutable std::atomic<std::uint64_t> mutual_hits_{0};
  mutable std::atomic<std::uint64_t> mutual_misses_{0};
};

}  // namespace emi::peec
