#include "src/peec/partial_inductance.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "src/core/parallel.hpp"
#include "src/numeric/quadrature.hpp"
#include "src/peec/sampled_path.hpp"

namespace emi::peec {

namespace {

std::atomic<std::uint64_t> g_sample_evals{0};
std::atomic<std::uint64_t> g_exact_pairs{0};
std::atomic<std::uint64_t> g_cluster_pairs{0};
std::atomic<std::uint64_t> g_cluster_skipped{0};

}  // namespace

namespace detail {

void tally_pairs(std::uint64_t exact_pairs, std::uint64_t sample_evals) {
  if (sample_evals != 0) g_sample_evals.fetch_add(sample_evals, std::memory_order_relaxed);
  if (exact_pairs != 0) g_exact_pairs.fetch_add(exact_pairs, std::memory_order_relaxed);
}

void tally_cluster(std::uint64_t cluster_pairs, std::uint64_t cluster_skipped) {
  if (cluster_pairs != 0) g_cluster_pairs.fetch_add(cluster_pairs, std::memory_order_relaxed);
  if (cluster_skipped != 0) g_cluster_skipped.fetch_add(cluster_skipped, std::memory_order_relaxed);
}

}  // namespace detail

KernelStats kernel_stats() {
  KernelStats s;
  s.sample_evals = g_sample_evals.load(std::memory_order_relaxed);
  s.exact_pairs = g_exact_pairs.load(std::memory_order_relaxed);
  s.cluster_pairs = g_cluster_pairs.load(std::memory_order_relaxed);
  s.cluster_skipped = g_cluster_skipped.load(std::memory_order_relaxed);
  return s;
}

double self_inductance_wire(double length_mm, double radius_mm) {
  if (length_mm <= 0.0 || radius_mm <= 0.0) {
    throw std::invalid_argument("self_inductance_wire: nonpositive dimensions");
  }
  const double l = length_mm * kMmToM;
  const double r = radius_mm * kMmToM;
  // Stubby segments (l <= 2r, i.e. shorter than their own diameter) have
  // negligible partial inductance and the formula goes negative just below
  // l = 2r * e^(3/4); clamp them to zero.
  if (length_mm <= 2.0 * radius_mm) return 0.0;
  return kMu0 * l / (2.0 * geom::kPi) * (std::log(2.0 * l / r) - 0.75);
}

double self_inductance_bar(double length_mm, double width_mm, double thickness_mm) {
  if (length_mm <= 0.0 || width_mm <= 0.0 || thickness_mm < 0.0) {
    throw std::invalid_argument("self_inductance_bar: nonpositive dimensions");
  }
  const double l = length_mm * kMmToM;
  const double wt = (width_mm + thickness_mm) * kMmToM;
  if (wt >= 2.0 * l) return 0.0;
  return kMu0 * l / (2.0 * geom::kPi) *
         (std::log(2.0 * l / wt) + 0.5 + 0.2235 * wt / l);
}

double mutual_parallel_filaments(double length_mm, double distance_mm) {
  if (length_mm <= 0.0 || distance_mm <= 0.0) {
    throw std::invalid_argument("mutual_parallel_filaments: nonpositive dimensions");
  }
  const double l = length_mm * kMmToM;
  const double d = distance_mm * kMmToM;
  const double u = l / d;
  return kMu0 * l / (2.0 * geom::kPi) *
         (std::log(u + std::sqrt(1.0 + u * u)) - std::sqrt(1.0 + 1.0 / (u * u)) + 1.0 / u);
}

double mutual_neumann(const Segment& s1, const Segment& s2, const QuadratureOptions& opt) {
  const double l1 = s1.length();
  const double l2 = s2.length();
  if (l1 <= 0.0 || l2 <= 0.0) return 0.0;

  const Vec3 d1 = s1.direction();
  const Vec3 d2 = s2.direction();
  const double dot = d1.dot(d2);
  // Orthogonal current elements do not couple; skip the integral entirely.
  if (std::fabs(dot) < 1e-12) return 0.0;

  const double guard = std::max(1e-6, std::sqrt(s1.radius * s2.radius));
  const std::size_t sub = std::max<std::size_t>(1, opt.subdivisions);

  double integral_mm = 0.0;  // integral of dl1.dl2/|r| with lengths in mm
  for (std::size_t i = 0; i < sub; ++i) {
    const double a1 = l1 * static_cast<double>(i) / static_cast<double>(sub);
    const double b1 = l1 * static_cast<double>(i + 1) / static_cast<double>(sub);
    for (std::size_t j = 0; j < sub; ++j) {
      const double a2 = l2 * static_cast<double>(j) / static_cast<double>(sub);
      const double b2 = l2 * static_cast<double>(j + 1) / static_cast<double>(sub);
      integral_mm += num::gauss_legendre(
          [&](double t1) {
            const Vec3 p1 = s1.a + d1 * t1;
            return num::gauss_legendre(
                [&](double t2) {
                  const Vec3 p2 = s2.a + d2 * t2;
                  const double r = std::max((p1 - p2).norm(), guard);
                  return 1.0 / r;
                },
                a2, b2, opt.order);
          },
          a1, b1, opt.order);
    }
  }
  detail::tally_pairs(1, sub * sub * opt.order * opt.order);
  // dl1.dl2 = dot * dt1 * dt2; convert the mm-valued integral (mm^2/mm = mm)
  // to metres.
  return kMu0 / (4.0 * geom::kPi) * dot * integral_mm * kMmToM;
}

double self_inductance(const Segment& s) {
  return self_inductance_wire(s.length(), s.radius);
}

double path_inductance(const SegmentPath& path, const QuadratureOptions& opt) {
  const SampledPath sp = sample_path(path, opt);
  const SampledPath* p = &sp;
  double out = 0.0;
  path_inductance_sampled_many({&p, 1}, {&out, 1});
  return out;
}

double path_mutual(const SegmentPath& p1, const SegmentPath& p2,
                   const QuadratureOptions& opt) {
  if (p1.segments.empty() || p2.segments.empty()) return 0.0;
  const SampledPath a = sample_path(p1, opt);
  const SampledPath b = sample_path(p2, opt);
  return path_mutual_sampled(a, b);
}

double path_mutual_legacy(const SegmentPath& p1, const SegmentPath& p2,
                          const QuadratureOptions& opt) {
  const auto& s1 = p1.segments;
  const auto& s2 = p2.segments;
  const auto row = [&](std::size_t i) {
    double r = 0.0;
    for (const Segment& b : s2) {
      r += s1[i].weight * b.weight * mutual_neumann(s1[i], b, opt);
    }
    return r;
  };
  if (s1.size() * s2.size() >= kParallelPairThreshold) {
    return core::parallel_sum(0, s1.size(), row);
  }
  double total = 0.0;
  for (std::size_t i = 0; i < s1.size(); ++i) total += row(i);
  return total;
}

}  // namespace emi::peec
