// Angle helpers. Rotations on the board are counter-clockwise, in degrees at
// API boundaries (matching the paper's 0/90/180/270 component rotations) and
// radians internally.
#pragma once

#include <cmath>
#include <numbers>

#include "src/geom/vec.hpp"

namespace emi::geom {

inline constexpr double kPi = std::numbers::pi;

constexpr double deg_to_rad(double deg) { return deg * kPi / 180.0; }
constexpr double rad_to_deg(double rad) { return rad * 180.0 / kPi; }

// Normalize an angle in degrees to [0, 360).
inline double normalize_deg(double deg) {
  double a = std::fmod(deg, 360.0);
  if (a < 0.0) a += 360.0;
  return a;
}

// Smallest unsigned angle between two directions in degrees, in [0, 180].
inline double angle_between_deg(double a_deg, double b_deg) {
  double d = std::fabs(normalize_deg(a_deg) - normalize_deg(b_deg));
  return d > 180.0 ? 360.0 - d : d;
}

// Angle between two *axes* (undirected lines) in degrees, in [0, 90].
// Magnetic axes have no sign: a coil rotated by 180 degrees produces the same
// coupling geometry, so axis angles fold into [0, 90].
inline double axis_angle_deg(double a_deg, double b_deg) {
  double d = std::fmod(std::fabs(a_deg - b_deg), 180.0);
  if (d > 90.0) d = 180.0 - d;
  return d;
}

inline Vec2 rotate(const Vec2& v, double rad) {
  const double c = std::cos(rad);
  const double s = std::sin(rad);
  return {c * v.x - s * v.y, s * v.x + c * v.y};
}

inline Vec2 rotate_deg(const Vec2& v, double deg) { return rotate(v, deg_to_rad(deg)); }

// Rotate about the z axis (board normal) by the angle whose cosine and sine
// are `c` and `s`: callers rotating many points by one angle evaluate them
// once.
inline Vec3 rotate_z(const Vec3& v, double c, double s) {
  return {c * v.x - s * v.y, s * v.x + c * v.y, v.z};
}

// Rotate about the z axis (board normal).
inline Vec3 rotate_z(const Vec3& v, double rad) {
  return rotate_z(v, std::cos(rad), std::sin(rad));
}

}  // namespace emi::geom
