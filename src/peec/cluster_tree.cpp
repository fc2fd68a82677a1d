#include "src/peec/cluster_tree.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/geom/angle.hpp"

namespace emi::peec {

namespace {

// Per-segment geometry pulled out of the SoA arrays once per tree build.
struct SegGeom {
  double ax, ay, az;  // start endpoint
  double bx, by, bz;  // end endpoint
  double mx, my, mz;  // midpoint
  double momx, momy, momz;  // w * l * d
  double mass;              // |w| * l
};

SegGeom seg_geom(const SampledPath& p, std::size_t i) {
  SegGeom g;
  g.ax = p.ax[i];
  g.ay = p.ay[i];
  g.az = p.az[i];
  g.bx = p.ax[i] + p.dx[i] * p.len[i];
  g.by = p.ay[i] + p.dy[i] * p.len[i];
  g.bz = p.az[i] + p.dz[i] * p.len[i];
  g.mx = p.mx[i];
  g.my = p.my[i];
  g.mz = p.mz[i];
  const double wl = p.wgt[i] * p.len[i];
  g.momx = wl * p.dx[i];
  g.momy = wl * p.dy[i];
  g.momz = wl * p.dz[i];
  g.mass = std::fabs(p.wgt[i]) * p.len[i];
  return g;
}

struct Builder {
  const SampledPath& path;
  std::size_t leaf;
  std::vector<ClusterNode> nodes;
  std::vector<std::size_t> order;

  // Emits the node covering order[begin, end) and returns its index.
  // Children are emitted preorder (left subtree first), recursion and the
  // stable median split keep the layout a pure function of the input.
  int emit(std::size_t begin, std::size_t end) {
    const int self = static_cast<int>(nodes.size());
    nodes.emplace_back();
    // Aggregate moment, mass and the mass-weighted center; zero-mass ranges
    // (all zero-length segments) fall back to the plain midpoint average so
    // the center stays inside the cluster.
    double momx = 0.0, momy = 0.0, momz = 0.0, mass = 0.0;
    double wx = 0.0, wy = 0.0, wz = 0.0;
    double sx = 0.0, sy = 0.0, sz = 0.0;
    for (std::size_t k = begin; k < end; ++k) {
      const SegGeom g = seg_geom(path, order[k]);
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
      const SegGeom g = seg_geom(path, order[k]);
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
    if (end - begin > leaf) {
      // Median split along the longest bbox axis of the member midpoints;
      // ties between axes resolve x < y < z, ties between members resolve
      // by segment index (stable sort), so the split is deterministic even
      // for degenerate geometry.
      double lo[3] = {path.mx[order[begin]], path.my[order[begin]],
                      path.mz[order[begin]]};
      double hi[3] = {lo[0], lo[1], lo[2]};
      for (std::size_t k = begin + 1; k < end; ++k) {
        const std::size_t i = order[k];
        const double m[3] = {path.mx[i], path.my[i], path.mz[i]};
        for (int a = 0; a < 3; ++a) {
          lo[a] = std::min(lo[a], m[a]);
          hi[a] = std::max(hi[a], m[a]);
        }
      }
      int axis = 0;
      for (int a = 1; a < 3; ++a) {
        if (hi[a] - lo[a] > hi[axis] - lo[axis]) axis = a;
      }
      const std::vector<double>& coord =
          axis == 0 ? path.mx : (axis == 1 ? path.my : path.mz);
      std::stable_sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
                       order.begin() + static_cast<std::ptrdiff_t>(end),
                       [&](std::size_t a, std::size_t b) {
                         if (coord[a] != coord[b]) return coord[a] < coord[b];
                         return a < b;
                       });
      const std::size_t mid = begin + (end - begin) / 2;
      node.left = emit(begin, mid);
      node.right = emit(mid, end);
    }
    nodes[static_cast<std::size_t>(self)] = node;
    return self;
  }
};

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
    const double rx = nb.cx - na.cx;
    const double ry = nb.cy - na.cy;
    const double rz = nb.cz - na.cz;
    const double r = std::sqrt(rx * rx + ry * ry + rz * rz);
    if (r > 0.0 && r >= theta * (na.radius + nb.radius)) {
      const double k = kMu0 / (4.0 * geom::kPi) / r * kMmToM;
      const double dot = na.mx * nb.mx + na.my * nb.my + na.mz * nb.mz;
      out.value += k * dot;
      out.error_bound += k * na.abs_moment * nb.abs_moment * coeff;
      out.cluster_pairs += 1;
      out.cluster_skipped +=
          static_cast<std::uint64_t>(na.count()) * nb.count();
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

ClusterTree ClusterTree::build(const SampledPath& path,
                               std::size_t leaf_segments) {
  ClusterTree tree;
  const std::size_t n = path.segment_count();
  if (n == 0) return tree;
  Builder b{path, std::max<std::size_t>(leaf_segments, 1), {}, {}};
  b.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) b.order[i] = i;
  b.nodes.reserve(2 * n);
  b.emit(0, n);
  tree.nodes_ = std::move(b.nodes);
  tree.order_ = std::move(b.order);
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
  ClusteredMutual out;
  const SampledPath& a = p1.samples;
  if (!kopt.cluster) {
    // path_mutual, with the first side's sampling already done.
    if (a.segment_count() == 0 || p2.segments.empty()) return out;
    out.value = path_mutual_sampled(a, sample_path(p2, opt), kopt);
    return out;
  }
  if (!(kopt.cluster_theta >= 2.0)) {
    throw std::invalid_argument(
        "path_mutual_clustered: cluster_theta must be >= 2");
  }
  const SampledPath b = sample_path(p2, opt);
  const std::size_t n1 = a.segment_count();
  const std::size_t n2 = b.segment_count();
  if (n1 == 0 || n2 == 0) return out;
  const ClusterTree& ta = p1.tree;
  if (ta.empty()) {
    throw std::invalid_argument(
        "path_mutual_clustered: first side prepared without clustering");
  }
  const ClusterTree tb = ClusterTree::build(b, kopt.cluster_leaf_segments);
  std::vector<unsigned char> covered(n1 * n2, 0);
  Traversal tr{a,
               b,
               ta,
               tb,
               kopt.cluster_theta,
               cluster_error_coefficient(kopt.cluster_theta),
               covered,
               {}};
  tr.visit(0, 0);
  out = tr.out;
  detail::tally_cluster(out.cluster_pairs, out.cluster_skipped);
  // Exact remainder in the reference fold order (i ascending with a per-row
  // accumulator, j ascending): when nothing was admitted this reproduces
  // path_mutual_sampled bit for bit, and the per-pair sampled_mutual call
  // keeps the analytic/far-field gates and kernel counters intact.
  double near = 0.0;
  for (std::size_t i = 0; i < n1; ++i) {
    double row = 0.0;
    const double wi = a.wgt[i];
    const unsigned char* cov = covered.data() + i * n2;
    for (std::size_t j = 0; j < n2; ++j) {
      if (cov[j]) continue;
      row += wi * b.wgt[j] * sampled_mutual(a, i, b, j, kopt);
    }
    near += row;
  }
  out.value += near;
  return out;
}

double path_mutual_clustered(const SegmentPath& p1, const SegmentPath& p2,
                             const QuadratureOptions& opt,
                             const KernelOptions& kopt) {
  return path_mutual_clustered_stats(p1, p2, opt, kopt).value;
}

}  // namespace emi::peec
