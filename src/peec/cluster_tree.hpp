// Hierarchical far-field clustering of segment paths: well-separated groups
// of segments interact through one midpoint-dipole contraction.
//
// ClusterTree is a deterministic KD-style binary tree over one sampled
// path's segments. Each node aggregates its members into a single dipole
// moment  m = sum_i w_i * l_i * d_i  (the weighted length-direction vectors
// the far-field midpoint formula contracts against), a moment-weighted
// center, and a radius covering every member endpoint. The dual traversal
// in path_mutual_clustered_stats() admits a cluster pair when the
// Barnes-Hut gate
//   R >= theta * (radius_a + radius_b)
// holds, replacing count_a * count_b exact pair integrals with one
// moment-moment contraction  mu0/(4pi) * (m_a . m_b) / R.  Non-admitted
// pairs recurse and eventually fall back to the exact row kernel, so
// accuracy degrades only where the documented bound says it may:
//
//   |error per admitted interaction| <= mu0/(4pi) * L_a * L_b / R * C(theta)
//   with L = sum_i |w_i| * l_i  and  C(theta) = 1/(theta-1) + 12/(theta-1)^2.
//
// Derivation in DESIGN.md paragraph 12; the 1/(theta-1) term is the
// center-displacement error (dipole-vector first moments do not cancel the
// way monopole mass moments do, so the bound is O(1/theta), not
// O(1/theta^2)), the 12/(theta-1)^2 term the per-pair midpoint-dipole
// truncation at the gate's worst admitted ratio. Verified against the
// order-8 exact kernel by the peec_cluster_tree 500-seed battery.
//
// Determinism contract: tree build (median split along the longest bbox
// axis, members ordered by coordinate, then index) and the dual traversal are serial and
// input-ordered; the exact remainder folds rows in the same ascending
// (i, j) order as path_mutual_sampled. Results are bit-identical at any
// thread count, and when theta is so large that nothing is admitted,
// bit-identical to path_mutual. The clustered entry point serves clustering
// only: the exact kernel is path_mutual (partial_inductance.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/peec/partial_inductance.hpp"
#include "src/peec/sampled_path.hpp"
#include "src/peec/segment.hpp"
#include "src/peec/winding.hpp"

namespace emi::peec {

// One cluster of consecutive entries of ClusterTree::order(). Children (if
// any) partition [begin, end); leaves hold at most the build's
// leaf_segments entries. Distances are in millimetres, matching the
// SampledPath arrays the tree is built over.
struct ClusterNode {
  double cx = 0.0, cy = 0.0, cz = 0.0;  // moment-weighted center
  double radius = 0.0;                  // covers all member endpoints
  double mx = 0.0, my = 0.0, mz = 0.0;  // dipole moment sum w_i * l_i * d_i
  double abs_moment = 0.0;              // sum |w_i| * l_i (error-bound mass)
  std::size_t begin = 0, end = 0;       // member range into order()
  int left = -1, right = -1;            // child node indices, -1 for leaves

  bool leaf() const { return left < 0; }
  std::size_t count() const { return end - begin; }
};

namespace detail {
// cluster_tree.cpp's tree build over per-segment geometry at hand.
struct TreeBuilder;
}  // namespace detail

// Deterministic bounding-volume hierarchy over one sampled path. Node 0 is
// the root; children are emitted preorder (left subtree first), so node
// indices - and every traversal that follows them - are a pure function of
// the input geometry.
class ClusterTree {
 public:
  // Builds the tree over `path`'s segments. Leaves hold at most
  // max(leaf_segments, 1) segments. An empty path yields an empty tree.
  static ClusterTree build(const SampledPath& path, std::size_t leaf_segments);

  bool empty() const { return nodes_.empty(); }
  const std::vector<ClusterNode>& nodes() const { return nodes_; }
  const ClusterNode& root() const { return nodes_.front(); }
  // Segment indices, permuted so every node's members are the contiguous
  // range order()[node.begin .. node.end).
  const std::vector<std::size_t>& order() const { return order_; }

 private:
  friend struct detail::TreeBuilder;
  std::vector<ClusterNode> nodes_;
  std::vector<std::size_t> order_;
};

// Result of one clustered path-pair extraction. `error_bound` accumulates
// the documented per-interaction bound over every admitted cluster pair, so
//   |value - path_mutual(exact)| <= error_bound
// always holds (the battery asserts it seed by seed). `cluster_pairs` and
// `cluster_skipped` mirror the KernelStats counters for this one call.
struct ClusteredMutual {
  double value = 0.0;
  double error_bound = 0.0;
  std::uint64_t cluster_pairs = 0;
  std::uint64_t cluster_skipped = 0;
};

// The admission gate's error coefficient C(theta) (see file comment).
// Requires theta > 1; the traversal itself enforces theta >= 2.
double cluster_error_coefficient(double theta);

// The first side of a path pair, prepared once for any number of second
// sides: its quadrature sampling and, when prepared with kopt.cluster, its
// cluster tree. The batch extractor prepares each distinct first model once
// per batch instead of once per pair.
struct PreparedPath {
  SampledPath samples;
  ClusterTree tree;  // empty unless prepared with clustering on
};
PreparedPath prepare_path(const SegmentPath& path, const QuadratureOptions& opt = {},
                          const KernelOptions& kopt = {});

// Mutual inductance between two paths with hierarchical clustering:
// admitted cluster pairs are served by aggregated moments and everything
// else by sampled_mutual_row over the uncovered pairs, in reference fold
// order. Throws std::invalid_argument with kopt.cluster off and for
// cluster_theta < 2.
ClusteredMutual path_mutual_clustered_stats(const SegmentPath& p1,
                                            const SegmentPath& p2,
                                            const QuadratureOptions& opt = {},
                                            const KernelOptions& kopt = {});

// Same, with the first side prepared by prepare_path under the same
// options; the overload above is this one on prepare_path(p1, opt, kopt).
// The second side's root cluster is tested against the first side's before
// anything else is built: when the roots pass the gate, that one admitted
// pair is the result (the same bits and counters a full traversal gives)
// and the second side is never sampled. The second side's sampling, tree,
// coverage flags and row scratch live in per-thread scratch that is reused
// from call to call, so a thread stops allocating once it has served its
// largest second side.
ClusteredMutual path_mutual_clustered_stats(const PreparedPath& p1,
                                            const SegmentPath& p2,
                                            const QuadratureOptions& opt = {},
                                            const KernelOptions& kopt = {});

// Same, with the second side `p2` placed at `pose`: the bits and counters
// of the overload above on transformed(p2, pose). The placed segments go
// into the same per-thread scratch, through transformed()'s expressions,
// so no call allocates once its thread is warm.
ClusteredMutual path_mutual_clustered_stats(const PreparedPath& p1,
                                            const SegmentPath& p2, const Pose& pose,
                                            const QuadratureOptions& opt,
                                            const KernelOptions& kopt);

}  // namespace emi::peec
