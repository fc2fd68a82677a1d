// Generators for the simplified conductor structures the paper uses:
// segmented rings for winding setups (chokes, coils), rectangular loops for
// capacitor current paths, straight bars for traces. All generators build
// geometry in a local frame and are positioned via Pose transforms.
#pragma once

#include <cstddef>

#include "src/core/units.hpp"
#include "src/geom/angle.hpp"
#include "src/peec/segment.hpp"

namespace emi::peec {

using units::Millimeters;

// Rigid placement of a component model in board coordinates: translate by
// `position` (mm) after rotating about the z axis by `rot_deg` CCW.
struct Pose {
  Vec3 position{};
  double rot_deg = 0.0;

  Vec3 apply(const Vec3& local) const {
    return geom::rotate_z(local, geom::deg_to_rad(rot_deg)) + position;
  }
  Vec3 rotate_dir(const Vec3& local_dir) const {
    return geom::rotate_z(local_dir, geom::deg_to_rad(rot_deg));
  }
};

// A pose with its rotation's cosine and sine evaluated once, for moving
// many points: apply() returns Pose::apply's bits.
struct PoseMap {
  explicit PoseMap(const Pose& pose)
      : cos_rot(std::cos(geom::deg_to_rad(pose.rot_deg))),
        sin_rot(std::sin(geom::deg_to_rad(pose.rot_deg))),
        position(pose.position) {}

  Vec3 apply(const Vec3& local) const {
    return geom::rotate_z(local, cos_rot, sin_rot) + position;
  }
  // The segment transformed() emits for `s`.
  Segment apply(const Segment& s) const {
    return {apply(s.a), apply(s.b), s.radius, s.weight};
  }

  double cos_rot, sin_rot;
  Vec3 position;
};

SegmentPath transformed(const SegmentPath& path, const Pose& pose);

// One circular ring of `n_facets` straight segments, radius r, centered at
// `center`, with ring plane normal `axis` (unit). `weight` carries the turn
// count when one ring stands for several tightly wound turns ("segmented
// rings" in the paper's Fig 11 description).
SegmentPath ring(const Vec3& center, const Vec3& axis, Millimeters radius,
                 std::size_t n_facets, Millimeters wire_radius, double weight = 1.0);

// Solenoid approximation of a bobbin coil: `n_rings` segmented rings evenly
// spaced over `length_mm` along `axis`, each standing for turns/n_rings
// turns.
SegmentPath solenoid(const Vec3& center, const Vec3& axis, Millimeters radius,
                     Millimeters length, std::size_t turns, std::size_t n_rings,
                     std::size_t n_facets, Millimeters wire_radius);

// Winding covering an angular sector of a toroid. The toroid lies in the
// x/y plane, centered at `center`, with major radius R and minor (winding)
// radius r. The winding occupies [sector_start_deg, sector_start_deg +
// sector_span_deg] and is modelled as `n_rings` minor-radius rings whose
// axes follow the toroid circumference. `sense` (+1/-1) sets the winding
// direction, which is what differentiates common-mode from differential-mode
// excitation of a current-compensated choke.
SegmentPath toroid_sector_winding(const Vec3& center, Millimeters major_radius,
                                  Millimeters minor_radius, double sector_start_deg,
                                  double sector_span_deg, std::size_t turns,
                                  std::size_t n_rings, std::size_t n_facets,
                                  Millimeters wire_radius, int sense = +1);

// Planar rectangular current loop in the x/z plane (a capacitor's
// pin-body-pin current path standing `height` above the board): from pin 1
// up, across the body, down to pin 2. The loop normal (magnetic axis) points
// along +y in the local frame.
SegmentPath rectangular_loop(Millimeters width, Millimeters height,
                             Millimeters wire_radius, double weight = 1.0);

// Straight trace bar from a to b (endpoints in mm, board frame) with
// rectangular cross-section.
SegmentPath trace(const Vec3& a, const Vec3& b, Millimeters width,
                  Millimeters thickness);

}  // namespace emi::peec
