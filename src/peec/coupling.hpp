// Coupling extraction: self inductance, mutual inductance and coupling
// factor k = M / sqrt(L1*L2) between placed component field models, plus the
// distance/angle sweeps the design rules are derived from.
//
// One path per quantity. Every self term goes through one self batch, every
// mutual through mutual_batch and every coupling factor through
// coupling_batch; the per-call forms (self_inductance, mutual,
// coupling_factor) are their one-item calls, and k itself is written once,
// in coupling_ratio.
//
// Caching. Extraction is the hot path of the whole pipeline (rule
// derivation bisections, per-layout coupling installation, benches), and the
// same geometry recurs constantly, so the extractor memoizes two levels:
//   * self inductance, keyed by the model's content digest (self L is
//     pose-invariant), and
//   * mutual inductance, keyed by (digest pair, canonical relative pose,
//     quadrature options). A pair translated rigidly across the board maps
//     to the same key and hits.
// The storage itself lives in peec::ExtractionCache (extraction_cache.hpp),
// a two-tier shareable structure: by default every extractor owns a private
// parentless cache (the pre-split behavior, bit-identical), but a service
// can hand several extractors one session cache backed by a shared global
// tier. Entries are keyed by *content*, not by object address, so concurrent
// extraction from a thread pool is safe and a model destroyed/reallocated at
// the same address cannot alias a stale entry. Cached mutuals are always
// *computed* in the canonical relative frame, so the returned bits are a
// pure function of the key - results do not depend on which thread, call
// site, extractor, or session populated the cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/core/units.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/extraction_cache.hpp"
#include "src/peec/partial_inductance.hpp"

namespace emi::peec {

using units::Henry;

struct PreparedPath;  // cluster_tree.hpp

struct PlacedModel {
  const ComponentFieldModel* model = nullptr;
  Pose pose{};
};

// Two models whose coupling rule is searched (min_distances_for_coupling).
using ModelPair = std::pair<const ComponentFieldModel*, const ComponentFieldModel*>;

// Two indices into a batch's span of placed models.
using IndexPair = std::pair<std::size_t, std::size_t>;

// Stable identity of a field model: a 64-bit FNV-1a digest over kind,
// material parameters and conductor geometry. Copies share a digest (and so
// share cache entries - correct, extraction only reads that content);
// mutating a copy changes it.
std::uint64_t model_digest(const ComponentFieldModel& m);

// Coupling factor k = M / sqrt(La * Lb), or 0 when either self term is not
// positive. Signed: the sign indicates field orientation; design rules use
// |k|. The one copy of the expression: every k the extractors, the flow and
// the geometric ranking report comes from here.
double coupling_ratio(Henry m, Henry la, Henry lb);

struct ExtractionCacheStats {
  std::uint64_t self_hits = 0;
  std::uint64_t self_misses = 0;
  std::uint64_t mutual_hits = 0;
  std::uint64_t mutual_misses = 0;
};

class CouplingExtractor {
 public:
  // `kernel` opts into clustered extraction (partial_inductance.hpp). The
  // default keeps the exact kernel, so default-constructed extractors
  // return bit-identical values to older builds; kernel options are part of
  // every mutual cache key, so differently-configured extractors never share
  // entries. `cache` optionally injects a shared (possibly tiered)
  // ExtractionCache - null keeps a fresh private cache, the pre-split
  // behavior. Quadrature and kernel configuration are baked into every key,
  // so differently-configured extractors can share one cache safely.
  explicit CouplingExtractor(QuadratureOptions opt = {}, KernelOptions kernel = {},
                             std::shared_ptr<ExtractionCache> cache = nullptr)
      : opt_(opt),
        kernel_(kernel),
        kern_cluster_(cluster_digest(kernel)),
        cache_(cache != nullptr ? std::move(cache)
                                : std::make_shared<ExtractionCache>()) {}

  const QuadratureOptions& options() const { return opt_; }
  const KernelOptions& kernel_options() const { return kernel_; }
  const std::shared_ptr<ExtractionCache>& cache() const { return cache_; }

  // Mutual-cache capacity. Insertion past the cap evicts the
  // oldest-inserted half (values are pure functions of their keys, so
  // eviction timing only affects recomputation frequency, never values; the
  // hit/miss counters stay monotone across evictions).
  static constexpr std::size_t kMutualCacheCap = ExtractionCache::kMutualCap;

  // Effective self inductance (air-core PEEC result scaled by mu_eff). The
  // one-lookup call of the private self batch.
  Henry self_inductance(const ComponentFieldModel& m) const;

  // Mutual inductance between two placed models (air-core Neumann result
  // scaled by the models' stray factors). Evaluated in the pair's canonical
  // relative frame, so the result is invariant under rigid motion of the
  // pair and symmetric in the arguments, bit-for-bit. The one-pair call of
  // mutual_batch.
  Henry mutual(const PlacedModel& a, const PlacedModel& b) const;

  // coupling_ratio(mutual(a, b), La, Lb): the one-pair call of
  // coupling_batch. Throws std::invalid_argument for a null model.
  double coupling_factor(const PlacedModel& a, const PlacedModel& b) const;

  // Batched mutual extraction: `pairs` indexes into `models`. Each placed
  // model's digest is computed once, then one canonicalization pass (a
  // parallel region from 64 pairs up), one shared-lock
  // cache probe for the whole batch, one parallel region that prepares the
  // misses' first sides (canonical-frame sampling and cluster tree) once
  // per distinct model, a single flat parallel region over the *unique*
  // canonical-pose misses (duplicates within the batch count as hits and
  // are computed once), and one bulk store - instead of N^2 per-call lock
  // round-trips and per-pair rebuilds of shared state. Throws
  // std::invalid_argument for an out-of-range index or a null model. Once
  // the calling stage's CancelScope stops, every miss the batch did not
  // finish comes back as 0 and nothing torn is stored; the stage discards
  // the results.
  std::vector<Henry> mutual_batch(std::span<const PlacedModel> models,
                                  std::span<const IndexPair> pairs) const;

  // Batched coupling factors: one mutual_batch over `pairs`, then both self
  // terms of each pair looked up in pair order (a, then b) in one self
  // batch, and k[p] = coupling_ratio(M[p], La[p], Lb[p]). The mutual is
  // extracted even when a self term is not positive (k is 0 then). Same
  // validation and stop behavior as mutual_batch.
  std::vector<double> coupling_batch(std::span<const PlacedModel> models,
                                     std::span<const IndexPair> pairs) const;

  // Full coupling matrix, row-major n x n: diagonal entries are effective
  // self inductances via one self batch, off-diagonals mutual inductances
  // via one mutual_batch over the upper triangle (mirrored; mutual() is
  // symmetric bit-for-bit by canonicalization). Each model is digested once
  // for both batches, in a parallel region from 64 models up.
  // With KernelOptions::cluster on, admitted well-separated cluster pairs
  // are served by aggregated dipole moments within the documented theta
  // error bound (cluster_tree.hpp); everything else stays pair-exact.
  std::vector<Henry> mutual_matrix(std::span<const PlacedModel> models) const;

  // Convenience: k with model A at the origin (rotation rot_a_deg) and model
  // B at center distance d along +x (rotation rot_b_deg). The sweeps below
  // extract all their points in one coupling_batch; each entry equals
  // coupling_at at its pose, bit for bit.
  double coupling_at(const ComponentFieldModel& a, const ComponentFieldModel& b,
                     Millimeters center_distance, double rot_a_deg = 0.0,
                     double rot_b_deg = 0.0) const;

  struct CurvePoint {
    Millimeters distance;
    double k;
  };
  // |k| sampled over [d_min, d_max]; the Fig 5 / Fig 7 sweeps.
  std::vector<CurvePoint> coupling_vs_distance(const ComponentFieldModel& a,
                                               const ComponentFieldModel& b,
                                               Millimeters d_min, Millimeters d_max,
                                               std::size_t n_points,
                                               double rot_b_deg = 0.0) const;

  struct AnglePoint {
    double angle_deg;
    double k;
  };
  // k as model B rotates in place at fixed distance; the Fig 6 / Fig 10
  // orientation sweep, expected ~ k0 * cos(angle).
  std::vector<AnglePoint> coupling_vs_angle(const ComponentFieldModel& a,
                                            const ComponentFieldModel& b,
                                            Millimeters center_distance,
                                            std::size_t n_points) const;

  // Smallest center distance at which |k| drops to `k_threshold` with
  // parallel magnetic axes - the PEMD design rule. Bisection over
  // [d_lo, d_hi] to width `tol`; returns d_lo if even the closest spacing
  // is below threshold, d_hi if the threshold cannot be met in range. The
  // search assumes |k| falls with distance, and k(d) need not: an X-cap
  // beside the filter coil changes sign near 15 mm, so |k| dips and rises
  // again, and a rule can stop at that inner crossing instead of the outer
  // one. The one-pair call of min_distances_for_coupling.
  Millimeters min_distance_for_coupling(const ComponentFieldModel& a,
                                        const ComponentFieldModel& b,
                                        double k_threshold, Millimeters d_lo,
                                        Millimeters d_hi,
                                        Millimeters tol = Millimeters{0.1}) const;

  // min_distance_for_coupling for every pair, all brackets moved forward
  // together: each level extracts every open pair's next probe (d_lo first,
  // then d_hi for pairs still open, then midpoints) in one coupling_batch, so
  // every pair's quadrature rows share the lanes. The evaluations and
  // decisions are exactly those of one search per pair, so each result
  // carries the same bits. Throws std::invalid_argument for a null model, a
  // non-finite or non-positive `k_threshold` or `tol`, and a non-finite or
  // empty bracket. A bracket whose edges become adjacent doubles (`tol`
  // below their spacing) ends at its upper edge. Once the calling stage's
  // CancelScope stops, the search returns early and its results are to be
  // discarded.
  std::vector<Millimeters> min_distances_for_coupling(
      std::span<const ModelPair> pairs, double k_threshold, Millimeters d_lo,
      Millimeters d_hi, Millimeters tol = Millimeters{0.1}) const;

  ExtractionCacheStats cache_stats() const;

 private:
  // A pair reduced to its canonical relative frame: everything the mutual
  // batch needs to probe the cache and, on a miss, compute.
  struct CanonicalPair {
    MutualCacheKey key;
    const PlacedModel* first;
    const PlacedModel* second;
    Vec3 rel_pos;
    double rel_rot;
    double stray;
  };
  // The batches with the models' digests (model_digest) supplied, for
  // callers that extract the same models over and over. `digest[i]` belongs
  // to `models[i]`; inputs are not validated.
  // The self batch: out[t] is the effective self inductance of
  // models[lookups[t]].model (poses are ignored). Lookups probe the cache in
  // order and count hits and misses exactly as one self_inductance call per
  // lookup would (a key an earlier lookup of the batch computes counts as a
  // hit, without a tier probe; a forced cache-fault miss counts as a miss
  // every time). Every missed model is computed once, all their quadrature
  // rows in one flat parallel region (path_inductance_sampled_many).
  std::vector<Henry> self_inductance_batch_digested(
      std::span<const PlacedModel> models, std::span<const std::uint64_t> digest,
      std::span<const std::size_t> lookups) const;
  // The mutual and coupling batches. `first_sides`, when given, keeps the
  // misses' prepared first sides across the caller's batches: a batch
  // reuses the ones an earlier batch prepared and, once it runs to the end,
  // adds its own (min_distances_for_coupling keeps them for a whole search).
  struct FirstSides;
  std::vector<Henry> mutual_batch_digested(std::span<const PlacedModel> models,
                                           std::span<const std::uint64_t> digest,
                                           std::span<const IndexPair> pairs,
                                           FirstSides* first_sides = nullptr) const;
  std::vector<double> coupling_batch_digested(std::span<const PlacedModel> models,
                                              std::span<const std::uint64_t> digest,
                                              std::span<const IndexPair> pairs,
                                              FirstSides* first_sides = nullptr) const;
  // `da` and `db` are the models' digests (model_digest).
  CanonicalPair canonicalize(const PlacedModel& a, const PlacedModel& b,
                             std::uint64_t da, std::uint64_t db) const;
  // A miss's canonical first side: `m` at the origin. It depends on the
  // model alone, so a batch prepares it once per model.
  PreparedPath prepare_first(const ComponentFieldModel& m) const;
  // Self-tier cache key: model digest mixed with the quadrature options (the
  // quadrature changes computed self inductance, and the cache may be shared
  // across differently-configured extractors).
  std::uint64_t self_key(std::uint64_t model_digest) const;
  // The mutual key's kern_cluster field for `kernel`: 0 with clustering
  // off, else a digest of (theta, leaf size).
  static std::uint64_t cluster_digest(const KernelOptions& kernel);

  QuadratureOptions opt_;
  KernelOptions kernel_;
  std::uint64_t kern_cluster_;  // cluster_digest(kernel_), once per extractor
  // Shared (possibly tiered) storage; never null. The per-extractor hit/miss
  // counters below account *this extractor's* traffic (hit = served from any
  // tier) - exactly the pre-split cache_stats() semantics - while per-tier
  // service counters live on the ExtractionCache itself.
  std::shared_ptr<ExtractionCache> cache_;
  mutable std::atomic<std::uint64_t> self_hits_{0};
  mutable std::atomic<std::uint64_t> self_misses_{0};
  mutable std::atomic<std::uint64_t> mutual_hits_{0};
  mutable std::atomic<std::uint64_t> mutual_misses_{0};
};

}  // namespace emi::peec
