// Precomputed quadrature sampling of segment paths and the one exact PEEC
// segment-pair kernel that runs over it.
//
// sample_path() resolves the Gauss-Legendre rule once per SegmentPath and
// stores, structure-of-arrays, everything the Neumann pair integral needs:
// sample positions, raw node weights, per-subinterval jacobians and the
// per-segment direction/length/radius/current-weight. The row kernel then
// evaluates segment i of one path against a column range of another: it
// skips orthogonal, zero-length and covered pairs, and runs its distance
// pass over the runs of exact pairs only, one outer sample against up to 16
// segments' samples at a time, so the divider runs at throughput. Each
// pair's arithmetic is the sequence mutual_neumann() performs, with the
// operands precomputed, so every pair value carries its bits. Every exact
// pair in `src` goes through that kernel: the row folds below, the batches
// built on them and the clustered remainder (cluster_tree.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/peec/partial_inductance.hpp"
#include "src/peec/segment.hpp"

namespace emi::peec {

// Structure-of-arrays quadrature sampling of one SegmentPath. Sample arrays
// are segment-major with a uniform stride of samples_per_segment() =
// subdivisions * order; jacobians are per (segment, subinterval).
struct SampledPath {
  std::size_t order = 0;  // Gauss points per subinterval
  std::size_t n_sub = 0;  // subintervals per segment

  // Per sample (segment-major): position and the raw Gauss node weight.
  std::vector<double> px, py, pz, wt;
  // Per (segment, subinterval): the 0.5*(b-a) jacobian of that subinterval.
  std::vector<double> half;
  // Per segment: unit direction, start point, midpoint, length, equivalent
  // radius and current weight. Zero-length segments store a zero direction.
  std::vector<double> dx, dy, dz;
  std::vector<double> ax, ay, az;
  std::vector<double> mx, my, mz;
  std::vector<double> len, rad, wgt;

  std::size_t segment_count() const { return wgt.size(); }
  std::size_t samples_per_segment() const { return order * n_sub; }
};

// Evaluate the quadrature grid of `path` once. Validates opt.order against
// the tabulated rules (throws std::invalid_argument outside 1..8, like the
// legacy kernel's first gauss_rule call would).
SampledPath sample_path(const SegmentPath& path, const QuadratureOptions& opt = {});
// The same sampling written into `out`, whose arrays keep their capacity:
// a caller that samples path after path into one SampledPath stops
// allocating once it has held the largest.
void sample_path(const SegmentPath& path, const QuadratureOptions& opt, SampledPath& out);

// The per-segment quantities sample_path stores: length, unit direction
// (zero for a zero-length segment) and midpoint. Code that needs a
// segment's geometry without sampling it (the cluster root test) goes
// through this too, so both see the same bits.
struct SegmentAxis {
  double len;
  Vec3 dir;
  Vec3 mid;
};
SegmentAxis segment_axis(const Segment& s);

// Neumann mutual partial inductance of segment i of `a` against segment j of
// `b`: the row kernel's one-pair call. Bit-identical to
// mutual_neumann(a_segment, b_segment, opt) for paths sampled with the same
// options; the pair is counted into kernel_stats().
double sampled_mutual_exact(const SampledPath& a, std::size_t i,
                            const SampledPath& b, std::size_t j);

// Caller-owned scratch of the row folds below. A loop over rows reuses one,
// which grows to the widest row it has served and then stops allocating;
// rows that run at the same time each need their own.
struct RowScratch {
  std::vector<double> values;     // M(i, j) of the current row
  std::vector<double> buf;        // distance, guard and accumulator blocks
  std::vector<std::size_t> runs;  // [begin, end) column runs of exact pairs
};

// Row i of the mutual double sum of `a` against `b`:
//   sum_j w_i * w_j * M(i, j), j ascending,
// over every j, or only over the j with covered[j] == 0 when `covered`
// (b.segment_count() flags) is given: the exact remainder of a clustered
// extraction. The row's exact pairs are counted into `tally`.
double sampled_mutual_row(const SampledPath& a, std::size_t i, const SampledPath& b,
                          const unsigned char* covered, RowScratch& scratch,
                          detail::PairTally& tally);

// Row i of the self double sum of path `p`:
//   w_i^2 * L_self(segment i) + sum_{j > i} 2 * w_i * w_j * M(i, j),
// j ascending. A zero-length segment i throws like self_inductance_wire
// before any pair is evaluated.
double sampled_self_row(const SampledPath& p, std::size_t i, RowScratch& scratch,
                        detail::PairTally& tally);

// Mutual inductance between two sampled paths: the rows of
// sampled_mutual_row folded serially in row order, so the returned bits
// match the serial double loop - and the legacy row-parallel path_mutual -
// at any thread count. This is the one-pair call of path_mutual_sampled_many.
double path_mutual_sampled(const SampledPath& a, const SampledPath& b);

// out[p] = path_mutual_sampled(*a[p], *b[p]) for every p, bit for bit, with
// the same kernel_stats() tallies. Every row of every pair runs in one flat
// parallel region (serially when the batch holds fewer than
// kParallelPairThreshold segment pairs in total); each pair is then folded
// serially in row order. One large pair and many small ones thus share the
// lanes instead of running one region after another. The three spans must
// have equal lengths (std::invalid_argument otherwise). Under a stopped
// CancelScope skipped rows stay 0.0, so the caller must discard `out`.
void path_mutual_sampled_many(std::span<const SampledPath* const> a,
                              std::span<const SampledPath* const> b,
                              std::span<double> out);

// out[p] = path_inductance of the path sampled as *paths[p], for every p,
// bit for bit, with the same kernel_stats() tallies. Every sampled_self_row
// of every path runs in one flat parallel region (serially when
// the batch holds fewer than kParallelPairThreshold segment pairs in total),
// then each path folds its rows serially in row order - the association the
// row-parallel sum gives at grain 1. Each row publishes its tallies once.
// The spans must have equal lengths (std::invalid_argument otherwise); a
// zero-length segment's self term throws like self_inductance_wire. Under a
// stopped CancelScope skipped rows stay 0.0, so the caller must discard
// `out`.
void path_inductance_sampled_many(std::span<const SampledPath* const> paths,
                                  std::span<double> out);

// True when the hot kernels above were compiled with per-ISA clones
// (target_clones default/avx2/avx512f, ifunc dispatch); false on toolchains
// without the attribute and in sanitizer builds, which skip the clones.
// Informational only (`emiplace version`): clone dispatch never changes bits.
bool kernel_clones_enabled();

}  // namespace emi::peec
