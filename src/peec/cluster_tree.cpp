#include "src/peec/cluster_tree.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/geom/angle.hpp"
#include "src/numeric/quadrature.hpp"

namespace emi::peec {

namespace {

// Per-segment geometry the tree aggregates.
struct SegGeom {
  double ax, ay, az;  // start endpoint
  double bx, by, bz;  // end endpoint
  double mx, my, mz;  // midpoint
  double momx, momy, momz;  // w * l * d
  double mass;              // |w| * l
};

// From a segment's start point, the per-segment quantities sample_path
// stores for it and its current weight.
SegGeom seg_geom(const Vec3& a, const SegmentAxis& x, double weight) {
  SegGeom g;
  g.ax = a.x;
  g.ay = a.y;
  g.az = a.z;
  g.bx = a.x + x.dir.x * x.len;
  g.by = a.y + x.dir.y * x.len;
  g.bz = a.z + x.dir.z * x.len;
  g.mx = x.mid.x;
  g.my = x.mid.y;
  g.mz = x.mid.z;
  const double wl = weight * x.len;
  g.momx = wl * x.dir.x;
  g.momy = wl * x.dir.y;
  g.momz = wl * x.dir.z;
  g.mass = std::fabs(weight) * x.len;
  return g;
}

SegGeom seg_geom(const SampledPath& p, std::size_t i) {
  return seg_geom({p.ax[i], p.ay[i], p.az[i]},
                  {p.len[i], {p.dx[i], p.dy[i], p.dz[i]}, {p.mx[i], p.my[i], p.mz[i]}},
                  p.wgt[i]);
}

// The same geometry of an unsampled segment, through sample_path's own
// per-segment expressions: the bits seg_geom gives its sampling.
SegGeom seg_geom(const Segment& s) { return seg_geom(s.a, segment_axis(s), s.weight); }

// The node over members geom(begin) .. geom(end - 1): aggregate moment,
// mass, the mass-weighted center and the radius covering every member
// endpoint. Zero-mass ranges (all zero-length segments) fall back to the
// plain midpoint average so the center stays inside the cluster. Children
// are left unset.
template <typename Geom>
ClusterNode aggregate(std::size_t begin, std::size_t end, const Geom& geom) {
  double momx = 0.0, momy = 0.0, momz = 0.0, mass = 0.0;
  double wx = 0.0, wy = 0.0, wz = 0.0;
  double sx = 0.0, sy = 0.0, sz = 0.0;
  for (std::size_t k = begin; k < end; ++k) {
    const SegGeom& g = geom(k);
    momx += g.momx;
    momy += g.momy;
    momz += g.momz;
    mass += g.mass;
    wx += g.mass * g.mx;
    wy += g.mass * g.my;
    wz += g.mass * g.mz;
    sx += g.mx;
    sy += g.my;
    sz += g.mz;
  }
  const double n = static_cast<double>(end - begin);
  double cx, cy, cz;
  if (mass > 0.0) {
    cx = wx / mass;
    cy = wy / mass;
    cz = wz / mass;
  } else {
    cx = sx / n;
    cy = sy / n;
    cz = sz / n;
  }
  double r2 = 0.0;
  for (std::size_t k = begin; k < end; ++k) {
    const SegGeom& g = geom(k);
    const double da = (g.ax - cx) * (g.ax - cx) + (g.ay - cy) * (g.ay - cy) +
                      (g.az - cz) * (g.az - cz);
    const double db = (g.bx - cx) * (g.bx - cx) + (g.by - cy) * (g.by - cy) +
                      (g.bz - cz) * (g.bz - cz);
    r2 = std::max(r2, std::max(da, db));
  }
  ClusterNode node;
  node.cx = cx;
  node.cy = cy;
  node.cz = cz;
  node.radius = std::sqrt(r2);
  node.mx = momx;
  node.my = momy;
  node.mz = momz;
  node.abs_moment = mass;
  node.begin = begin;
  node.end = end;
  return node;
}

// Emits the tree over the segments whose geometry is geom[0 .. n) into
// `nodes` and `order` (both emptied first).
struct Builder {
  const SegGeom* geom;  // by segment index
  std::size_t leaf;
  std::vector<ClusterNode>& nodes;
  std::vector<std::size_t>& order;

  // Emits the node covering order[begin, end) and returns its index.
  // Children are emitted preorder (left subtree first), recursion and the
  // median split on a total order keep the layout a pure function of the
  // input.
  int emit(std::size_t begin, std::size_t end) {
    const int self = static_cast<int>(nodes.size());
    nodes.emplace_back();
    ClusterNode node = aggregate(
        begin, end, [&](std::size_t k) -> const SegGeom& { return geom[order[k]]; });
    if (end - begin > leaf) {
      // Median split along the longest bbox axis of the member midpoints;
      // ties between axes resolve x < y < z, ties between members resolve
      // by segment index. (coordinate, index) is a strict total order, so
      // the sorted permutation is unique and std::sort gives the one a
      // stable sort would, without its temporary buffer.
      const SegGeom& g0 = geom[order[begin]];
      double lo[3] = {g0.mx, g0.my, g0.mz};
      double hi[3] = {lo[0], lo[1], lo[2]};
      for (std::size_t k = begin + 1; k < end; ++k) {
        const SegGeom& g = geom[order[k]];
        const double m[3] = {g.mx, g.my, g.mz};
        for (int a = 0; a < 3; ++a) {
          lo[a] = std::min(lo[a], m[a]);
          hi[a] = std::max(hi[a], m[a]);
        }
      }
      int axis = 0;
      for (int a = 1; a < 3; ++a) {
        if (hi[a] - lo[a] > hi[axis] - lo[axis]) axis = a;
      }
      double SegGeom::*const coord =
          axis == 0 ? &SegGeom::mx : (axis == 1 ? &SegGeom::my : &SegGeom::mz);
      std::sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
                order.begin() + static_cast<std::ptrdiff_t>(end),
                [&](std::size_t a, std::size_t b) {
                  const double ca = geom[a].*coord;
                  const double cb = geom[b].*coord;
                  if (ca != cb) return ca < cb;
                  return a < b;
                });
      const std::size_t mid = begin + (end - begin) / 2;
      node.left = emit(begin, mid);
      node.right = emit(mid, end);
    }
    nodes[static_cast<std::size_t>(self)] = node;
    return self;
  }

  void build(std::size_t n) {
    nodes.clear();
    order.clear();
    if (n == 0) return;
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    nodes.reserve(2 * n);
    emit(0, n);
  }
};

// The admission gate R >= theta * (r_a + r_b) on a cluster pair's center
// separation R, stored in `r`.
bool admitted(const ClusterNode& na, const ClusterNode& nb, double theta, double& r) {
  const double rx = nb.cx - na.cx;
  const double ry = nb.cy - na.cy;
  const double rz = nb.cz - na.cz;
  r = std::sqrt(rx * rx + ry * ry + rz * rz);
  return r > 0.0 && r >= theta * (na.radius + nb.radius);
}

// Folds one admitted cluster pair at separation r into `out`: the
// moment-moment contraction, its error bound and the pair counters.
void admit(const ClusterNode& na, const ClusterNode& nb, double r, double coeff,
           ClusteredMutual& out) {
  const double k = kMu0 / (4.0 * geom::kPi) / r * kMmToM;
  const double dot = na.mx * nb.mx + na.my * nb.my + na.mz * nb.mz;
  out.value += k * dot;
  out.error_bound += k * na.abs_moment * nb.abs_moment * coeff;
  out.cluster_pairs += 1;
  out.cluster_skipped += static_cast<std::uint64_t>(na.count()) * nb.count();
}

// Dual-traversal state shared down the recursion. Serial and
// traversal-ordered throughout: the result never depends on thread count.
struct Traversal {
  const SampledPath& A;
  const SampledPath& B;
  const ClusterTree& ta;
  const ClusterTree& tb;
  double theta;
  double coeff;                       // C(theta), hoisted
  std::vector<unsigned char>& covered;  // n1 * n2, row-major over (i, j)
  ClusteredMutual out;

  void visit(int ia, int ib) {
    const ClusterNode& na = ta.nodes()[static_cast<std::size_t>(ia)];
    const ClusterNode& nb = tb.nodes()[static_cast<std::size_t>(ib)];
    double r = 0.0;
    if (admitted(na, nb, theta, r)) {
      admit(na, nb, r, coeff, out);
      const std::size_t n2 = B.segment_count();
      for (std::size_t ka = na.begin; ka < na.end; ++ka) {
        const std::size_t i = ta.order()[ka];
        for (std::size_t kb = nb.begin; kb < nb.end; ++kb) {
          covered[i * n2 + tb.order()[kb]] = 1;
        }
      }
      return;
    }
    const bool la = na.leaf();
    const bool lb = nb.leaf();
    if (la && lb) return;  // exact remainder handles the members
    // Split the wider side (ties split A) - keeps the recursion balanced
    // and, being a pure function of the node geometry, deterministic.
    if (!la && (lb || na.radius >= nb.radius)) {
      visit(na.left, ib);
      visit(na.right, ib);
    } else {
      visit(ia, nb.left);
      visit(ia, nb.right);
    }
  }
};

}  // namespace

namespace detail {

struct TreeBuilder {
  // The tree over the n segments whose geometry is geom[0 .. n), built in
  // `tree`'s storage (its capacity kept).
  static void build(ClusterTree& tree, const SegGeom* geom, std::size_t n,
                    std::size_t leaf_segments) {
    Builder{geom, std::max<std::size_t>(leaf_segments, 1), tree.nodes_, tree.order_}.build(n);
  }
};

}  // namespace detail

namespace {

// One thread's scratch for the second sides of clustered path pairs: the
// placed segments (for a posed call), their geometry for the root test and,
// for a pair the roots do not settle, the tree built from that geometry,
// the sampling, coverage flags and row scratch. Each grows to the largest
// second side its thread has served and is then reused, so a thread
// extracting pair after pair stops allocating. Being thread_local it is
// never shared between lanes, and it is sized here, outside the row
// kernel's clones (pair_row grows the row scratch before it dispatches).
struct SecondSide {
  std::vector<SegGeom> geom;
  SegmentPath path;
  SampledPath samples;
  ClusterTree tree;
  std::vector<unsigned char> covered;
  RowScratch rows;
};

SecondSide& second_side_scratch() {
  thread_local SecondSide scratch;
  return scratch;
}

// path_mutual_clustered_stats(p1, p2, opt, kopt), working in `s`; p2 may be
// s.path.
ClusteredMutual clustered_stats(const PreparedPath& p1, const SegmentPath& p2,
                                const QuadratureOptions& opt, const KernelOptions& kopt,
                                SecondSide& s) {
  ClusteredMutual out;
  const SampledPath& a = p1.samples;
  if (!kopt.cluster) {
    throw std::invalid_argument(
        "path_mutual_clustered: clustering is off (the exact kernel is path_mutual)");
  }
  if (!(kopt.cluster_theta >= 2.0)) {
    throw std::invalid_argument(
        "path_mutual_clustered: cluster_theta must be >= 2");
  }
  const std::size_t n1 = a.segment_count();
  const std::size_t n2 = p2.segments.size();
  // sample_path's validation of the rule, which the root test below may
  // leave uncalled.
  if (n2 > 0) (void)num::gauss_rule(opt.order);
  if (n1 == 0 || n2 == 0) return out;
  const ClusterTree& ta = p1.tree;
  if (ta.empty()) {
    throw std::invalid_argument(
        "path_mutual_clustered: first side prepared without clustering");
  }
  const double theta = kopt.cluster_theta;
  const double coeff = cluster_error_coefficient(theta);
  // Root test before the second side is sampled: its root node is
  // aggregated from the segments alone, through the expressions the tree
  // build applies to their sampling, so it carries the bits of the built
  // tree's root. Admitted, that root pair is the whole traversal and the
  // remainder is empty; sampling, tree and coverage would go unused.
  // Otherwise the tree is built from this same geometry.
  s.geom.resize(n2);
  for (std::size_t k = 0; k < n2; ++k) s.geom[k] = seg_geom(p2.segments[k]);
  const ClusterNode root_b =
      aggregate(0, n2, [&](std::size_t k) -> const SegGeom& { return s.geom[k]; });
  double r = 0.0;
  double near = 0.0;
  if (admitted(ta.root(), root_b, theta, r)) {
    admit(ta.root(), root_b, r, coeff, out);
  } else {
    sample_path(p2, opt, s.samples);
    detail::TreeBuilder::build(s.tree, s.geom.data(), n2, kopt.cluster_leaf_segments);
    s.covered.assign(n1 * n2, 0);
    Traversal tr{a, s.samples, ta, s.tree, theta, coeff, s.covered, {}};
    tr.visit(0, 0);
    out = tr.out;
    // Exact remainder on the row kernel, in the reference fold order (i
    // ascending, each row's uncovered j ascending): when nothing was
    // admitted this reproduces path_mutual_sampled bit for bit. The pairs
    // are counted locally and published once.
    detail::PairTally tally;
    for (std::size_t i = 0; i < n1; ++i) {
      near += sampled_mutual_row(a, i, s.samples, s.covered.data() + i * n2, s.rows, tally);
    }
    tally.publish();
  }
  detail::tally_cluster(out.cluster_pairs, out.cluster_skipped);
  out.value += near;
  return out;
}

}  // namespace

ClusterTree ClusterTree::build(const SampledPath& path,
                               std::size_t leaf_segments) {
  // Each segment's geometry once, read by every level of the build.
  std::vector<SegGeom> geom(path.segment_count());
  for (std::size_t i = 0; i < geom.size(); ++i) geom[i] = seg_geom(path, i);
  ClusterTree tree;
  detail::TreeBuilder::build(tree, geom.data(), geom.size(), leaf_segments);
  return tree;
}

double cluster_error_coefficient(double theta) {
  const double t = theta - 1.0;
  return 1.0 / t + 12.0 / (t * t);
}

PreparedPath prepare_path(const SegmentPath& path, const QuadratureOptions& opt,
                          const KernelOptions& kopt) {
  PreparedPath out;
  out.samples = sample_path(path, opt);
  if (kopt.cluster) out.tree = ClusterTree::build(out.samples, kopt.cluster_leaf_segments);
  return out;
}

ClusteredMutual path_mutual_clustered_stats(const SegmentPath& p1,
                                            const SegmentPath& p2,
                                            const QuadratureOptions& opt,
                                            const KernelOptions& kopt) {
  return path_mutual_clustered_stats(prepare_path(p1, opt, kopt), p2, opt, kopt);
}

ClusteredMutual path_mutual_clustered_stats(const PreparedPath& p1,
                                            const SegmentPath& p2,
                                            const QuadratureOptions& opt,
                                            const KernelOptions& kopt) {
  return clustered_stats(p1, p2, opt, kopt, second_side_scratch());
}

ClusteredMutual path_mutual_clustered_stats(const PreparedPath& p1,
                                            const SegmentPath& p2, const Pose& pose,
                                            const QuadratureOptions& opt,
                                            const KernelOptions& kopt) {
  SecondSide& s = second_side_scratch();
  const PoseMap map(pose);
  s.path.segments.resize(p2.segments.size());
  for (std::size_t k = 0; k < p2.segments.size(); ++k) {
    s.path.segments[k] = map.apply(p2.segments[k]);
  }
  return clustered_stats(p1, s.path, opt, kopt, s);
}

}  // namespace emi::peec
