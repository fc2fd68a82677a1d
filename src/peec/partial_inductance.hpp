// Partial self and mutual inductance of straight conductor segments.
//
// Self terms use the classic round-wire / rectangular-bar closed forms
// (Rosa/Grover, Ruehli). Mutual terms use a Neumann double Gauss-Legendre
// quadrature; the closed form for equal facing parallel filaments is kept
// as a test reference. Inputs are in millimetres, outputs in henries.
//
// The production pair kernel lives in sampled_path.hpp: paths are sampled
// once (positions, weights, jacobians in structure-of-arrays form) and the
// pair integral runs over the precomputed grids. mutual_neumann() here is
// the legacy nested-quadrature reference it is tested against; both compute
// the identical floating-point sequence, so they agree bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/geom/angle.hpp"
#include "src/peec/segment.hpp"

namespace emi::peec {

inline constexpr double kMu0 = 4.0e-7 * 3.14159265358979323846;  // H/m
inline constexpr double kMmToM = 1e-3;

// Below this many segment-pair integrals a path-level double sum (or a batch
// of them, counted in total) runs on the calling thread; the scheduling cost
// of a parallel region would dominate.
// The serial and parallel schedules accumulate in the same order, so
// crossing the threshold (or changing the thread count) never changes the
// returned bits for a given input.
inline constexpr std::size_t kParallelPairThreshold = 256;

// Options controlling the accuracy/cost tradeoff of the Neumann integral.
// The ablation bench sweeps these.
struct QuadratureOptions {
  std::size_t order = 6;        // Gauss-Legendre points per segment axis (1..8)
  std::size_t subdivisions = 2; // split each segment before integrating
};

// Pair-kernel options. The default runs the exact quadrature, bit-identical
// with older builds; callers that tolerate the documented error opt in.
//   * cluster: hierarchical group-level extraction (cluster_tree.hpp).
//     Well-separated *clusters* of segments interact through aggregated
//     dipole moments; the absolute error of one admitted cluster
//     interaction is bounded by
//       mu0/(4pi) * L_A * L_B / R * C(theta),
//     with L the clusters' summed |weight|*length, R the center separation
//     and C(theta) = 1/(theta-1) + 12/(theta-1)^2 (derivation in DESIGN.md
//     paragraph 12; verified by the peec_cluster_tree battery).
struct KernelOptions {
  // Barnes-Hut style clustered extraction: segment cluster pairs whose
  // center separation R satisfies R >= cluster_theta * (radius_a + radius_b)
  // are served by one aggregated-moment evaluation; everything else falls
  // back to the exact pair kernel. Requires cluster_theta >= 2 (the error
  // bound above diverges as theta -> 1).
  bool cluster = false;
  double cluster_theta = 4.0;
  std::size_t cluster_leaf_segments = 4;  // max segments per tree leaf
};

// Process-wide monotone kernel counters (relaxed atomics, PoolStats-style):
// snapshot before and after a region and subtract. `sample_evals` counts
// 1/r integrand evaluations; the pair counters classify how each segment
// pair was served.
struct KernelStats {
  std::uint64_t sample_evals = 0;
  std::uint64_t exact_pairs = 0;
  // Always 0: the analytic-parallel and far-field fast paths they counted
  // are gone. Kept so the six-field aggregate stays source-compatible.
  std::uint64_t analytic_pairs = 0;
  std::uint64_t far_field_pairs = 0;
  // Clustered extraction: `cluster_pairs` counts admitted cluster-moment
  // interactions, `cluster_skipped` the segment pairs those interactions
  // covered (each would otherwise have cost one exact pair integral).
  std::uint64_t cluster_pairs = 0;
  std::uint64_t cluster_skipped = 0;
};
KernelStats kernel_stats();

namespace detail {
// Counter plumbing shared by the legacy and sampled kernels: one atomic add
// per counter for any number of exact pairs and their sample evaluations.
void tally_pairs(std::uint64_t exact_pairs, std::uint64_t sample_evals);
// Bulk form used by the clustered dual traversal (cluster_tree.cpp).
void tally_cluster(std::uint64_t cluster_pairs, std::uint64_t cluster_skipped);

// Plain exact-pair counters a batched caller sums over one call (or one
// row) and publishes once, instead of two process-wide atomic adds per
// segment pair.
struct PairTally {
  std::uint64_t exact_pairs = 0;
  std::uint64_t sample_evals = 0;
  void publish() const { tally_pairs(exact_pairs, sample_evals); }
};
}  // namespace detail

// Partial self inductance of a straight round wire of length l and radius r
// (uniform current): L = mu0*l/(2*pi) * (ln(2l/r) - 3/4).
double self_inductance_wire(double length_mm, double radius_mm);

// Partial self inductance of a straight rectangular bar (Ruehli 1972):
// L = mu0*l/(2*pi) * (ln(2l/(w+t)) + 1/2 + 0.2235(w+t)/l).
double self_inductance_bar(double length_mm, double width_mm, double thickness_mm);

// Exact mutual inductance of two parallel filaments of equal length l at
// center distance d, directly facing each other (Grover):
// M = mu0*l/(2*pi) * (ln(l/d + sqrt(1 + l^2/d^2)) - sqrt(1 + d^2/l^2) + d/l).
double mutual_parallel_filaments(double length_mm, double distance_mm);

// General mutual partial inductance between two arbitrary segments via the
// Neumann integral  M = mu0/(4*pi) * int int (dl1 . dl2) / |r1 - r2|.
// Perpendicular segments correctly yield ~0. Near-singular configurations
// are regularized by clamping |r1-r2| to the geometric mean of the radii.
// Legacy nested-quadrature reference; sampled_path.hpp holds the fast
// bit-identical production kernel.
double mutual_neumann(const Segment& s1, const Segment& s2,
                      const QuadratureOptions& opt = {});

// Partial inductance of a segment against itself (dispatches to the wire
// closed form using the segment's equivalent radius).
double self_inductance(const Segment& s);

// Loop inductance of a closed (or terminal-to-terminal) current path: the
// double sum of partial self and mutual terms, weighted by the per-segment
// current weights. Always runs the exact kernel (self-inductance accuracy
// is what the effective-permeability calibration rests on). The one-path
// call of path_inductance_sampled_many (sampled_path.hpp).
double path_inductance(const SegmentPath& path, const QuadratureOptions& opt = {});

// Mutual inductance between two current paths (double sum of Neumann
// terms). Samples both paths once and runs the flat sampled kernel,
// bit-identical to path_mutual_legacy.
double path_mutual(const SegmentPath& p1, const SegmentPath& p2,
                   const QuadratureOptions& opt = {});

// The pre-sampling implementation (row-parallel nested quadrature), kept as
// the equivalence reference for tests and benches.
double path_mutual_legacy(const SegmentPath& p1, const SegmentPath& p2,
                          const QuadratureOptions& opt = {});

}  // namespace emi::peec
