#include "src/peec/coupling.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/core/fault_injection.hpp"
#include "src/core/parallel.hpp"
#include "src/peec/cluster_tree.hpp"
#include "src/peec/sampled_path.hpp"

namespace emi::peec {

namespace {

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t fnv1a(std::uint64_t h, double v) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

// The cache fault site's draw for a mutual key: an injected miss recomputes
// instead of returning the memoized value. The fault hash reads all 72 key
// bytes, so it is only taken while some fault site is armed.
bool forced_mutual_miss(const MutualCacheKey& key) {
  return core::fault::armed() &&
         core::fault::should_fire(core::FaultSite::kCache,
                                  core::fault::mix(1, mutual_key_fault_hash(key)));
}

// Batches with fewer items than this keep their bookkeeping (model
// digests, canonical keys) on the calling lane, where a region would cost
// more than it saves; the design flow's batches, 11 pairs at most, stay
// serial.
constexpr std::size_t kParallelBookkeeping = 64;

// fn(i) for every i < n: serially below kParallelBookkeeping items, else in
// one parallel region of `grain`-item chunks. Each i writes only its own
// slots. A stop may skip whole chunks, so a caller polls its scope before
// it reads the slots.
template <typename Fn>
void bookkeep(std::size_t n, std::size_t grain, const Fn& fn) {
  if (n < kParallelBookkeeping) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  } else {
    core::parallel_for(0, n, fn, grain);
  }
}

// The digest of every model with need[i] set; the others stay 0. The models
// must be non-null.
std::vector<std::uint64_t> model_digests(std::span<const PlacedModel> models,
                                         const std::vector<char>& need) {
  std::vector<std::uint64_t> digest(models.size(), 0);
  // A 60-segment coil digests in a few microseconds: 4 models per chunk.
  bookkeep(models.size(), 4, [&](std::size_t i) {
    if (need[i]) digest[i] = model_digest(*models[i].model);
  });
  return digest;
}

// The digest of every model `pairs` references, once per model; the others
// stay 0. Throws std::invalid_argument for an out-of-range index or a null
// model.
std::vector<std::uint64_t> pair_digests(std::span<const PlacedModel> models,
                                        std::span<const IndexPair> pairs) {
  std::vector<char> need(models.size(), 0);
  for (const auto& [ia, ib] : pairs) {
    for (const std::size_t i : {ia, ib}) {
      if (i >= models.size()) {
        throw std::invalid_argument("CouplingExtractor: pair index out of range");
      }
      if (models[i].model == nullptr) {
        throw std::invalid_argument("CouplingExtractor: null model");
      }
      need[i] = 1;
    }
  }
  return model_digests(models, need);
}

}  // namespace

double coupling_ratio(Henry m, Henry la, Henry lb) {
  if (la.raw() <= 0.0 || lb.raw() <= 0.0) return 0.0;
  // M / sqrt(La * Lb) is dimensionless; the quantity algebra checks it.
  return m / units::sqrt(la * lb);
}

std::uint64_t model_digest(const ComponentFieldModel& m) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, static_cast<std::uint64_t>(m.kind));
  h = fnv1a(h, m.mu_eff);
  h = fnv1a(h, m.stray_scale);
  h = fnv1a(h, m.local_axis.x);
  h = fnv1a(h, m.local_axis.y);
  h = fnv1a(h, m.local_axis.z);
  h = fnv1a(h, static_cast<std::uint64_t>(m.local_path.segments.size()));
  for (const Segment& s : m.local_path.segments) {
    h = fnv1a(h, s.a.x);
    h = fnv1a(h, s.a.y);
    h = fnv1a(h, s.a.z);
    h = fnv1a(h, s.b.x);
    h = fnv1a(h, s.b.y);
    h = fnv1a(h, s.b.z);
    h = fnv1a(h, s.radius);
    h = fnv1a(h, s.weight);
  }
  return h;
}

std::uint64_t CouplingExtractor::cluster_digest(const KernelOptions& kernel) {
  // Clustering changes computed bits, so its whole configuration joins the
  // mutual key: a flag bit plus this digest of (theta, leaf size). Both stay
  // zero with clustering off, keeping default-extractor keys identical to
  // older builds.
  if (!kernel.cluster) return 0;
  const std::uint64_t h = fnv1a(kFnvOffset, kernel.cluster_theta);
  return fnv1a(h, static_cast<std::uint64_t>(kernel.cluster_leaf_segments));
}

std::uint64_t CouplingExtractor::self_key(std::uint64_t digest) const {
  // Bake the quadrature into the map key (shared caches serve extractors
  // with different options); the fault-injection key below intentionally
  // stays the bare digest so injected-miss patterns match older builds.
  return fnv1a(digest, (static_cast<std::uint64_t>(opt_.order) << 32) |
                           static_cast<std::uint64_t>(opt_.subdivisions));
}

Henry CouplingExtractor::self_inductance(const ComponentFieldModel& m) const {
  const PlacedModel placed{&m, Pose{}};
  const std::uint64_t digest = model_digest(m);
  const std::size_t lookup = 0;
  return self_inductance_batch_digested({&placed, 1}, {&digest, 1}, {&lookup, 1}).front();
}

std::vector<Henry> CouplingExtractor::self_inductance_batch_digested(
    std::span<const PlacedModel> models, std::span<const std::uint64_t> digest,
    std::span<const std::size_t> lookups) const {
  std::vector<Henry> out(lookups.size(), Henry{0.0});
  // Cooperative stop probe: once the owning stage's CancelScope reports a
  // stop, skip the quadrature and return the zero sentinels without
  // touching the cache. The stage discards all results on a stop, so the
  // sentinels never reach a caller that keeps them.
  if (!core::CancelScope::poll()) return out;

  // Probe in lookup order. Each missed key becomes one job however often
  // it is looked up; a later unforced lookup of it counts the hit the job's
  // store would have served a lone call.
  struct Job {
    const ComponentFieldModel* model;
    std::uint64_t key;
  };
  std::vector<Job> jobs;
  std::unordered_map<std::uint64_t, std::size_t> job_of_key;
  constexpr std::size_t kServed = static_cast<std::size_t>(-1);
  std::vector<std::size_t> job_of(lookups.size(), kServed);
  for (std::size_t t = 0; t < lookups.size(); ++t) {
    const std::size_t i = lookups[t];
    const std::uint64_t key = self_key(digest[i]);
    // Injected cache miss: recompute instead of returning the memoized
    // value. Entries are pure functions of the key, so this perturbs timing
    // and hit counters but never the returned inductance - exactly what the
    // cache's correctness contract promises.
    const bool forced_miss =
        core::fault::should_fire(core::FaultSite::kCache, core::fault::mix(0, digest[i]));
    const auto it = job_of_key.find(key);
    if (!forced_miss) {
      if (it != job_of_key.end()) {
        self_hits_.fetch_add(1, std::memory_order_relaxed);
        job_of[t] = it->second;
        continue;
      }
      if (const std::optional<double> v = cache_->lookup_self(key)) {
        self_hits_.fetch_add(1, std::memory_order_relaxed);
        out[t] = Henry{*v};
        continue;
      }
    }
    self_misses_.fetch_add(1, std::memory_order_relaxed);
    if (it != job_of_key.end()) {
      job_of[t] = it->second;
    } else {
      job_of[t] = jobs.size();
      job_of_key.emplace(key, jobs.size());
      jobs.push_back(Job{models[i].model, key});
    }
  }
  if (jobs.empty()) return out;

  // One region samples every job's path, one flat region runs every row of
  // every job.
  std::vector<SampledPath> samples(jobs.size());
  core::parallel_for(
      0, jobs.size(),
      [&](std::size_t j) { samples[j] = sample_path(jobs[j].model->local_path, opt_); }, 1);
  std::vector<const SampledPath*> paths(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) paths[j] = &samples[j];
  std::vector<double> l_air(jobs.size(), 0.0);
  path_inductance_sampled_many(paths, l_air);
  // A stop in either region skipped whole chunks, so any value may be torn:
  // store none. A torn value must never reach the shared cache - it
  // outlives this stopped stage and would poison a later attempt's
  // bit-identical replay.
  if (!core::CancelScope::poll()) return out;
  std::vector<double> l(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    l[j] = jobs[j].model->mu_eff * l_air[j];
    cache_->store_self(jobs[j].key, l[j]);
  }
  for (std::size_t t = 0; t < lookups.size(); ++t) {
    if (job_of[t] != kServed) out[t] = Henry{l[job_of[t]]};
  }
  return out;
}

CouplingExtractor::CanonicalPair CouplingExtractor::canonicalize(
    const PlacedModel& a, const PlacedModel& b, std::uint64_t da,
    std::uint64_t db) const {
  // Canonical pair order (smaller digest first) and canonical relative pose:
  // second model expressed in the first model's frame. Rigid translations of
  // the pair - the placer's bread and butter - collapse to one key.
  // Identical models (equal digests) are common - the paper's X-cap pair -
  // so break the tie on pose, keeping mutual(a,b) and mutual(b,a) on one key.
  const auto pose_before = [](const Pose& p, const Pose& q) {
    if (p.position.x != q.position.x) return p.position.x < q.position.x;
    if (p.position.y != q.position.y) return p.position.y < q.position.y;
    if (p.position.z != q.position.z) return p.position.z < q.position.z;
    return p.rot_deg < q.rot_deg;
  };
  CanonicalPair c;
  c.first = &a;
  c.second = &b;
  std::uint64_t dlo = da, dhi = db;
  if (db < da || (da == db && pose_before(b.pose, a.pose))) {
    c.first = &b;
    c.second = &a;
    dlo = db;
    dhi = da;
  }
  c.rel_rot =
      geom::normalize_deg(c.second->pose.rot_deg - c.first->pose.rot_deg);
  c.rel_pos =
      geom::rotate_z(c.second->pose.position - c.first->pose.position,
                     geom::deg_to_rad(-c.first->pose.rot_deg));
  c.stray = a.model->stray_scale * b.model->stray_scale;
  c.key = MutualCacheKey{dlo,
                         dhi,
                         std::bit_cast<std::uint64_t>(c.rel_pos.x),
                         std::bit_cast<std::uint64_t>(c.rel_pos.y),
                         std::bit_cast<std::uint64_t>(c.rel_pos.z),
                         std::bit_cast<std::uint64_t>(c.rel_rot),
                         (static_cast<std::uint64_t>(opt_.order) << 32) |
                             static_cast<std::uint64_t>(opt_.subdivisions),
                         kernel_.cluster ? 4ull : 0ull,
                         kern_cluster_};
  return c;
}

PreparedPath CouplingExtractor::prepare_first(const ComponentFieldModel& m) const {
  return prepare_path(m.path_at(Pose{}), opt_, kernel_);
}

Henry CouplingExtractor::mutual(const PlacedModel& a, const PlacedModel& b) const {
  const PlacedModel models[] = {a, b};
  const IndexPair pair{0, 1};
  return mutual_batch(models, {&pair, 1}).front();
}

double CouplingExtractor::coupling_factor(const PlacedModel& a,
                                          const PlacedModel& b) const {
  const PlacedModel models[] = {a, b};
  const IndexPair pair{0, 1};
  return coupling_batch(models, {&pair, 1}).front();
}

std::vector<Henry> CouplingExtractor::mutual_batch(std::span<const PlacedModel> models,
                                                   std::span<const IndexPair> pairs) const {
  return mutual_batch_digested(models, pair_digests(models, pairs), pairs);
}

std::vector<double> CouplingExtractor::coupling_batch(std::span<const PlacedModel> models,
                                                      std::span<const IndexPair> pairs) const {
  return coupling_batch_digested(models, pair_digests(models, pairs), pairs);
}

std::vector<double> CouplingExtractor::coupling_batch_digested(
    std::span<const PlacedModel> models, std::span<const std::uint64_t> digest,
    std::span<const IndexPair> pairs, FirstSides* first_sides) const {
  const std::vector<Henry> m = mutual_batch_digested(models, digest, pairs, first_sides);
  std::vector<std::size_t> lookups;
  lookups.reserve(2 * pairs.size());
  for (const auto& [ia, ib] : pairs) {
    lookups.push_back(ia);
    lookups.push_back(ib);
  }
  const std::vector<Henry> l = self_inductance_batch_digested(models, digest, lookups);
  std::vector<double> k(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    k[p] = coupling_ratio(m[p], l[2 * p], l[2 * p + 1]);
  }
  return k;
}

// Canonical-first sides one caller keeps across its batches, by model
// digest. Only a batch that ran to the end adds to it, so every entry is
// complete.
struct CouplingExtractor::FirstSides {
  std::unordered_map<std::uint64_t, PreparedPath> of_digest;
};

std::vector<Henry> CouplingExtractor::mutual_batch_digested(
    std::span<const PlacedModel> models, std::span<const std::uint64_t> digest,
    std::span<const IndexPair> pairs, FirstSides* first_sides) const {
  if (pairs.empty()) return {};
  // Cooperative stop contract, as in the self batch: sentinel zeros, cache
  // untouched, results discarded by the stopped stage.
  std::vector<Henry> out(pairs.size(), Henry{0.0});
  if (!core::CancelScope::poll()) return out;

  // Canonicalize every pair and hash its key (a few trig calls each).
  std::vector<CanonicalPair> canon(pairs.size());
  std::vector<std::size_t> hash(pairs.size());
  bookkeep(pairs.size(), 128, [&](std::size_t p) {
    const auto [ia, ib] = pairs[p];
    canon[p] = canonicalize(models[ia], models[ib], digest[ia], digest[ib]);
    hash[p] = MutualCacheKeyHash{}(canon[p].key);
  });
  // A stop that skipped chunks left pairs without a key.
  if (!core::CancelScope::poll()) return out;

  // Collapse duplicates in pair order: job j is the j-th distinct key,
  // first[j] the first pair holding it, slot[p] pair p's job. The table
  // indexes jobs, so no key costs a node allocation.
  std::vector<std::size_t> first;
  first.reserve(pairs.size());
  std::vector<std::size_t> slot(pairs.size());
  std::uint64_t hits = 0;
  {
    MutualKeyIndex table;
    table.reset(2 * pairs.size());
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const std::size_t t = table.find(
          canon[p].key, hash[p],
          [&](std::size_t j) -> const MutualCacheKey& { return canon[first[j]].key; });
      if (table[t] == 0) {
        table.set(t, first.size());
        first.push_back(p);
      } else {
        // A duplicate of an earlier batch entry is served by that entry's
        // computation, exactly like a second sequential mutual() call would
        // be served by the cache: count it as a hit.
        ++hits;
      }
      slot[p] = table[t] - 1;
    }
  }
  const std::size_t n_jobs = first.size();

  // One batched tier probe for the unique keys. Forced-miss jobs are masked
  // out by pre-setting their found flag, so no tier serves or counts them.
  // m_air[j] stays 0 for a miss the batch does not finish.
  std::vector<MutualCacheKey> keys(n_jobs);
  std::vector<double> m_air(n_jobs, 0.0);
  std::vector<char> found(n_jobs, 0);
  std::vector<char> forced(n_jobs, 0);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    keys[j] = canon[first[j]].key;
    if (forced_mutual_miss(keys[j])) {
      forced[j] = 1;
      found[j] = 1;
    }
  }
  cache_->lookup_mutual_batch(keys, m_air, found);

  std::vector<std::size_t> miss;
  miss.reserve(n_jobs);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    if (found[j] && !forced[j]) {
      ++hits;
    } else {
      miss.push_back(j);
    }
  }
  if (hits > 0) mutual_hits_.fetch_add(hits, std::memory_order_relaxed);
  if (!miss.empty()) mutual_misses_.fetch_add(miss.size(), std::memory_order_relaxed);

  // The misses' first sides, prepared once per distinct canonical-first
  // model (keyed by digest, the identity the cache keys on): a model in many
  // pairs is sampled and clustered once, not once per pair, and a side the
  // caller kept from an earlier batch is not prepared again. A pair reaches
  // its first side through its model's index, so the digest table sees each
  // model once. The second side stays per pair; its pose is the pair's
  // relative pose, and samples taken at one pose are not those of another.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> side_of_model(models.size(), kNone);
  std::unordered_map<std::uint64_t, std::size_t> side_of_digest;
  std::vector<const PreparedPath*> side;  // kept sides, then `prepared`
  std::vector<char> side_ready;           // kept, or prepared by this batch
  std::vector<std::size_t> new_side;      // side index of each new side
  std::vector<const ComponentFieldModel*> new_model;
  std::vector<std::uint64_t> new_digest;
  std::vector<std::size_t> side_of_miss(miss.size());
  for (std::size_t k = 0; k < miss.size(); ++k) {
    const CanonicalPair& c = canon[first[miss[k]]];
    const auto i = static_cast<std::size_t>(c.first - models.data());
    if (side_of_model[i] == kNone) {
      const std::uint64_t d = c.key.digest_lo;
      const auto [it, inserted] = side_of_digest.emplace(d, side.size());
      if (inserted) {
        const PreparedPath* kept = nullptr;
        if (first_sides != nullptr) {
          if (const auto f = first_sides->of_digest.find(d); f != first_sides->of_digest.end()) {
            kept = &f->second;
          }
        }
        if (kept == nullptr) {
          new_side.push_back(side.size());
          new_model.push_back(c.first->model);
          new_digest.push_back(d);
        }
        side.push_back(kept);
        side_ready.push_back(kept != nullptr ? 1 : 0);
      }
      side_of_model[i] = it->second;
    }
    side_of_miss[k] = side_of_model[i];
  }
  std::vector<PreparedPath> prepared(new_model.size());
  for (std::size_t m = 0; m < new_model.size(); ++m) side[new_side[m]] = &prepared[m];

  std::vector<char> computed(n_jobs, 0);  // set for each miss the batch finished
  if (kernel_.cluster) {
    core::parallel_for(
        0, new_model.size(),
        [&](std::size_t m) {
          if (!core::CancelScope::poll()) return;
          prepared[m] = prepare_first(*new_model[m]);
          side_ready[new_side[m]] = 1;
        },
        1);
    // Clustered misses: one task per pair (the dual traversal is serial
    // per pair). Each job writes only its own slot; values are pure
    // functions of the canonical key, so the schedule cannot affect results.
    // The second side is placed at the pair's relative pose in its lane's
    // scratch (path_mutual_clustered_stats), where a pair the roots do not
    // settle also samples it and builds its tree: no task allocates once
    // its lane is warm.
    core::parallel_for(
        0, miss.size(),
        [&](std::size_t k) {
          const std::size_t v = side_of_miss[k];
          // A stop (or one that skipped this first side's preparation)
          // leaves the sentinel and skips the store.
          if (!core::CancelScope::poll() || !side_ready[v]) return;
          // Computed in the canonical frame, so the value is a pure function
          // of the key: the second side sits at the pair's relative pose.
          const std::size_t j = miss[k];
          const CanonicalPair& c = canon[first[j]];
          const double v_air =
              path_mutual_clustered_stats(*side[v], c.second->model->local_path,
                                          Pose{c.rel_pos, c.rel_rot}, opt_, kernel_)
                  .value;
          // Re-poll after the compute: a stop that landed mid-traversal
          // leaves a torn value, which is neither stored nor returned.
          if (!core::CancelScope::poll()) return;
          m_air[j] = v_air;
          computed[j] = 1;
        },
        4);
  } else {
    // Exact misses: one region samples every new first side and every
    // miss's second side (at the pair's relative pose), then one flat row
    // region runs every row of every miss. A large pair's rows and the small
    // pairs' rows share the lanes instead of running one region after
    // another; each value keeps the bits path_mutual gives it in the
    // canonical frame.
    const std::size_t n_new = new_model.size();
    std::vector<SampledPath> second(miss.size());
    core::parallel_for(
        0, n_new + miss.size(),
        [&](std::size_t t) {
          if (!core::CancelScope::poll()) return;
          if (t < n_new) {
            prepared[t] = prepare_first(*new_model[t]);
            return;
          }
          const CanonicalPair& c = canon[first[miss[t - n_new]]];
          second[t - n_new] =
              sample_path(c.second->model->path_at(Pose{c.rel_pos, c.rel_rot}), opt_);
        },
        1);
    std::vector<const SampledPath*> first_of(miss.size());
    std::vector<const SampledPath*> second_of(miss.size());
    for (std::size_t k = 0; k < miss.size(); ++k) {
      first_of[k] = &side[side_of_miss[k]]->samples;
      second_of[k] = &second[k];
    }
    std::vector<double> row_sums(miss.size(), 0.0);
    path_mutual_sampled_many(first_of, second_of, row_sums);
    // A stop anywhere in the two regions skipped whole chunks (a
    // preparation or a row), so every value may be torn: store and return
    // none. The scope latches its stop, so this poll sees any stop the
    // regions saw.
    if (core::CancelScope::poll()) {
      for (std::size_t k = 0; k < miss.size(); ++k) {
        m_air[miss[k]] = row_sums[k];
        computed[miss[k]] = 1;
      }
    }
  }

  // One bulk store of everything actually computed. Its keys move to the
  // front of `keys`, which nothing reads afterwards (misses ascend, so a
  // key never moves past one still to be read).
  std::vector<double> store_vals;
  store_vals.reserve(miss.size());
  for (const std::size_t j : miss) {
    if (!computed[j]) continue;
    keys[store_vals.size()] = keys[j];
    store_vals.push_back(m_air[j]);
  }
  if (!store_vals.empty()) {
    cache_->store_mutual_batch({keys.data(), store_vals.size()}, store_vals);
  }
  // The caller keeps the new first sides only from a batch that ran to the
  // end: then every preparation finished.
  if (first_sides != nullptr && core::CancelScope::poll()) {
    for (std::size_t m = 0; m < new_model.size(); ++m) {
      first_sides->of_digest.emplace(new_digest[m], std::move(prepared[m]));
    }
  }

  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::size_t j = slot[p];
    out[p] = Henry{canon[first[j]].stray * m_air[j]};
  }
  return out;
}

std::vector<Henry> CouplingExtractor::mutual_matrix(
    std::span<const PlacedModel> models) const {
  const std::size_t n = models.size();
  std::vector<std::size_t> diagonal(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (models[i].model == nullptr) {
      throw std::invalid_argument("mutual_matrix: null model");
    }
    diagonal[i] = i;
  }
  const std::vector<std::uint64_t> digest = model_digests(models, std::vector<char>(n, 1));
  std::vector<Henry> m(n * n, Henry{0.0});
  std::vector<IndexPair> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  const std::vector<Henry> off = mutual_batch_digested(models, digest, pairs);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    m[pairs[p].first * n + pairs[p].second] = off[p];
    m[pairs[p].second * n + pairs[p].first] = off[p];
  }
  const std::vector<Henry> self = self_inductance_batch_digested(models, digest, diagonal);
  for (std::size_t i = 0; i < n; ++i) m[i * n + i] = self[i];
  return m;
}

double CouplingExtractor::coupling_at(const ComponentFieldModel& a,
                                      const ComponentFieldModel& b,
                                      Millimeters center_distance, double rot_a_deg,
                                      double rot_b_deg) const {
  const PlacedModel pa{&a, Pose{{0.0, 0.0, 0.0}, rot_a_deg}};
  const PlacedModel pb{&b, Pose{{center_distance.raw(), 0.0, 0.0}, rot_b_deg}};
  return coupling_factor(pa, pb);
}

std::vector<CouplingExtractor::CurvePoint> CouplingExtractor::coupling_vs_distance(
    const ComponentFieldModel& a, const ComponentFieldModel& b, Millimeters d_min,
    Millimeters d_max, std::size_t n_points, double rot_b_deg) const {
  if (n_points < 2 || d_max <= d_min) {
    throw std::invalid_argument("coupling_vs_distance: bad sweep range");
  }
  // One coupling batch for the whole sweep: the mutual points extract in a
  // single parallel region.
  std::vector<PlacedModel> models;
  models.reserve(n_points + 1);
  models.push_back({&a, Pose{{0.0, 0.0, 0.0}, 0.0}});
  std::vector<Millimeters> dist;
  dist.reserve(n_points);
  std::vector<IndexPair> pairs;
  pairs.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const Millimeters d = d_min + (d_max - d_min) * (static_cast<double>(i) /
                                                     static_cast<double>(n_points - 1));
    dist.push_back(d);
    models.push_back({&b, Pose{{d.raw(), 0.0, 0.0}, rot_b_deg}});
    pairs.emplace_back(0, models.size() - 1);
  }
  const std::vector<double> k = coupling_batch(models, pairs);
  std::vector<CurvePoint> out;
  out.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) out.push_back({dist[i], std::fabs(k[i])});
  return out;
}

std::vector<CouplingExtractor::AnglePoint> CouplingExtractor::coupling_vs_angle(
    const ComponentFieldModel& a, const ComponentFieldModel& b,
    Millimeters center_distance, std::size_t n_points) const {
  if (n_points < 2) throw std::invalid_argument("coupling_vs_angle: need points");
  std::vector<PlacedModel> models;
  models.reserve(n_points + 1);
  models.push_back({&a, Pose{{0.0, 0.0, 0.0}, 0.0}});
  std::vector<double> angles;
  angles.reserve(n_points);
  std::vector<IndexPair> pairs;
  pairs.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const double ang = 90.0 * static_cast<double>(i) / static_cast<double>(n_points - 1);
    angles.push_back(ang);
    models.push_back({&b, Pose{{center_distance.raw(), 0.0, 0.0}, ang}});
    pairs.emplace_back(0, models.size() - 1);
  }
  const std::vector<double> k = coupling_batch(models, pairs);
  std::vector<AnglePoint> out;
  out.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) out.push_back({angles[i], k[i]});
  return out;
}

Millimeters CouplingExtractor::min_distance_for_coupling(
    const ComponentFieldModel& a, const ComponentFieldModel& b, double k_threshold,
    Millimeters d_lo, Millimeters d_hi, Millimeters tol) const {
  const ModelPair pair{&a, &b};
  return min_distances_for_coupling({&pair, 1}, k_threshold, d_lo, d_hi, tol).front();
}

std::vector<Millimeters> CouplingExtractor::min_distances_for_coupling(
    std::span<const ModelPair> pairs, double k_threshold, Millimeters d_lo,
    Millimeters d_hi, Millimeters tol) const {
  if (!(k_threshold > 0.0) || !std::isfinite(k_threshold)) {
    throw std::invalid_argument("min_distance: threshold must be finite and > 0");
  }
  if (!(tol.raw() > 0.0) || !std::isfinite(tol.raw())) {
    throw std::invalid_argument("min_distance: tolerance must be finite and > 0");
  }
  if (!std::isfinite(d_lo.raw()) || !std::isfinite(d_hi.raw()) || !(d_hi > d_lo)) {
    throw std::invalid_argument("min_distance: bad bracket");
  }
  for (const auto& [a, b] : pairs) {
    if (a == nullptr || b == nullptr) throw std::invalid_argument("min_distance: null model");
  }

  // One search per pair, as a state machine advanced one probe per level:
  // kLo probes d_lo, kHi probes d_hi, kMid probes the bracket midpoint.
  // `hi` is the search's answer so far: its upper bracket edge, or d_lo
  // once d_lo already meets the threshold.
  enum class Step { kLo, kHi, kMid };
  struct Search {
    Step step;
    Millimeters lo, hi, probe;
  };
  std::vector<Search> search(pairs.size(), Search{Step::kLo, d_lo, d_hi, d_lo});
  std::vector<std::size_t> open(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) open[p] = p;
  // Past the d_hi probe: stop once the bracket is within tolerance, or
  // once its edges are adjacent doubles and the midpoint cannot split it.
  const auto next_probe = [&](Search& q) {
    if (!(q.hi - q.lo > tol)) return false;
    q.probe = 0.5 * (q.lo + q.hi);
    return q.probe != q.lo && q.probe != q.hi;
  };

  // Every level extracts the same models: digest each pair's sides once.
  std::vector<std::uint64_t> pair_digest(2 * pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    pair_digest[2 * p] = model_digest(*pairs[p].first);
    pair_digest[2 * p + 1] = model_digest(*pairs[p].second);
  }

  // Every level's pairs put the same canonical-first models at the origin:
  // each is sampled once for the whole search, not once per level.
  FirstSides first_sides;
  std::vector<PlacedModel> models;
  std::vector<std::uint64_t> digests;
  std::vector<IndexPair> idx;
  while (!open.empty()) {
    // Levels chain extractions serially; bail out between them once the
    // stage is stopped (the returned values are discarded).
    if (!core::CancelScope::poll()) break;
    models.clear();
    digests.clear();
    idx.clear();
    for (const std::size_t p : open) {
      models.push_back({pairs[p].first, Pose{{0.0, 0.0, 0.0}, 0.0}});
      models.push_back({pairs[p].second, Pose{{search[p].probe.raw(), 0.0, 0.0}, 0.0}});
      digests.push_back(pair_digest[2 * p]);
      digests.push_back(pair_digest[2 * p + 1]);
      idx.emplace_back(models.size() - 2, models.size() - 1);
    }
    const std::vector<double> k = coupling_batch_digested(models, digests, idx, &first_sides);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < open.size(); ++i) {
      const std::size_t p = open[i];
      Search& q = search[p];
      const double k_abs = std::fabs(k[i]);
      bool more = false;
      switch (q.step) {
        case Step::kLo:
          if (k_abs <= k_threshold) {
            q.hi = d_lo;
          } else {
            q.step = Step::kHi;
            q.probe = d_hi;
            more = true;
          }
          break;
        case Step::kHi:
          q.step = Step::kMid;
          more = !(k_abs > k_threshold) && next_probe(q);
          break;
        case Step::kMid:
          (k_abs > k_threshold ? q.lo : q.hi) = q.probe;
          more = next_probe(q);
          break;
      }
      if (more) open[kept++] = p;
    }
    open.resize(kept);
  }
  std::vector<Millimeters> out;
  out.reserve(pairs.size());
  for (const Search& q : search) out.push_back(q.hi);
  return out;
}

ExtractionCacheStats CouplingExtractor::cache_stats() const {
  ExtractionCacheStats s;
  s.self_hits = self_hits_.load(std::memory_order_relaxed);
  s.self_misses = self_misses_.load(std::memory_order_relaxed);
  s.mutual_hits = mutual_hits_.load(std::memory_order_relaxed);
  s.mutual_misses = mutual_misses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace emi::peec
