#include "src/peec/winding.hpp"

#include <cmath>
#include <stdexcept>

namespace emi::peec {

SegmentPath transformed(const SegmentPath& path, const Pose& pose) {
  const PoseMap map(pose);
  SegmentPath out;
  out.segments.reserve(path.segments.size());
  for (const Segment& s : path.segments) out.segments.push_back(map.apply(s));
  return out;
}

namespace {

// Build an orthonormal frame (u, v) perpendicular to `axis`.
void perp_frame(const Vec3& axis, Vec3& u, Vec3& v) {
  const Vec3 n = axis.normalized();
  const Vec3 helper = std::fabs(n.z) < 0.9 ? Vec3{0, 0, 1} : Vec3{1, 0, 0};
  u = n.cross(helper).normalized();
  v = n.cross(u);
}

}  // namespace

SegmentPath ring(const Vec3& center, const Vec3& axis, Millimeters radius,
                 std::size_t n_facets, Millimeters wire_radius, double weight) {
  if (n_facets < 3) throw std::invalid_argument("ring: need at least 3 facets");
  if (radius.raw() <= 0.0) throw std::invalid_argument("ring: nonpositive radius");
  const double radius_mm = radius.raw();
  const double wire_radius_mm = wire_radius.raw();
  Vec3 u, v;
  perp_frame(axis, u, v);
  SegmentPath out;
  out.segments.reserve(n_facets);
  for (std::size_t i = 0; i < n_facets; ++i) {
    const double a0 = 2.0 * geom::kPi * static_cast<double>(i) / static_cast<double>(n_facets);
    const double a1 =
        2.0 * geom::kPi * static_cast<double>(i + 1) / static_cast<double>(n_facets);
    const Vec3 p0 = center + (u * std::cos(a0) + v * std::sin(a0)) * radius_mm;
    const Vec3 p1 = center + (u * std::cos(a1) + v * std::sin(a1)) * radius_mm;
    out.segments.push_back({p0, p1, wire_radius_mm, weight});
  }
  return out;
}

SegmentPath solenoid(const Vec3& center, const Vec3& axis, Millimeters radius,
                     Millimeters length, std::size_t turns, std::size_t n_rings,
                     std::size_t n_facets, Millimeters wire_radius) {
  const double length_mm = length.raw();
  if (n_rings == 0) throw std::invalid_argument("solenoid: need at least 1 ring");
  if (turns == 0) throw std::invalid_argument("solenoid: need at least 1 turn");
  const Vec3 n = axis.normalized();
  const double turns_per_ring = static_cast<double>(turns) / static_cast<double>(n_rings);
  SegmentPath out;
  for (std::size_t i = 0; i < n_rings; ++i) {
    // Rings at the centers of n_rings equal slices of the coil length.
    const double frac =
        n_rings == 1 ? 0.0
                     : (static_cast<double>(i) + 0.5) / static_cast<double>(n_rings) - 0.5;
    const Vec3 c = center + n * (frac * length_mm);
    SegmentPath r = ring(c, n, radius, n_facets, wire_radius, turns_per_ring);
    out.segments.insert(out.segments.end(), r.segments.begin(), r.segments.end());
  }
  return out;
}

SegmentPath toroid_sector_winding(const Vec3& center, Millimeters major_radius,
                                  Millimeters minor_radius, double sector_start_deg,
                                  double sector_span_deg, std::size_t turns,
                                  std::size_t n_rings, std::size_t n_facets,
                                  Millimeters wire_radius, int sense) {
  if (n_rings == 0) throw std::invalid_argument("toroid_sector_winding: need rings");
  const double major_radius_mm = major_radius.raw();
  if (major_radius <= minor_radius) {
    throw std::invalid_argument("toroid_sector_winding: major radius must exceed minor");
  }
  const double turns_per_ring = static_cast<double>(turns) / static_cast<double>(n_rings);
  const double sgn = sense >= 0 ? 1.0 : -1.0;
  SegmentPath out;
  for (std::size_t i = 0; i < n_rings; ++i) {
    const double frac = (static_cast<double>(i) + 0.5) / static_cast<double>(n_rings);
    const double phi = geom::deg_to_rad(sector_start_deg + frac * sector_span_deg);
    const Vec3 c = center + Vec3{std::cos(phi), std::sin(phi), 0.0} * major_radius_mm;
    // The winding ring encircles the core: its axis is the toroid tangent.
    const Vec3 tangent{-std::sin(phi), std::cos(phi), 0.0};
    SegmentPath r =
        ring(c, tangent, minor_radius, n_facets, wire_radius, sgn * turns_per_ring);
    out.segments.insert(out.segments.end(), r.segments.begin(), r.segments.end());
  }
  return out;
}

SegmentPath rectangular_loop(Millimeters width, Millimeters height,
                             Millimeters wire_radius, double weight) {
  if (width.raw() <= 0.0 || height.raw() <= 0.0) {
    throw std::invalid_argument("rectangular_loop: nonpositive dimensions");
  }
  const double height_mm = height.raw();
  const double wire_radius_mm = wire_radius.raw();
  const double w = width.raw() / 2.0;
  // Loop in the x/z plane; normal along +y.
  const Vec3 p0{-w, 0.0, 0.0};
  const Vec3 p1{-w, 0.0, height_mm};
  const Vec3 p2{w, 0.0, height_mm};
  const Vec3 p3{w, 0.0, 0.0};
  SegmentPath out;
  out.segments = {{p0, p1, wire_radius_mm, weight},
                  {p1, p2, wire_radius_mm, weight},
                  {p2, p3, wire_radius_mm, weight},
                  {p3, p0, wire_radius_mm, weight}};
  return out;
}

SegmentPath trace(const Vec3& a, const Vec3& b, Millimeters width,
                  Millimeters thickness) {
  SegmentPath out;
  out.segments.push_back({a, b, equivalent_radius(width.raw(), thickness.raw()), 1.0});
  return out;
}

}  // namespace emi::peec
