#include "src/peec/ground_plane.hpp"

#include <stdexcept>

#include "src/peec/partial_inductance.hpp"

namespace emi::peec {

SegmentPath with_ground_plane(const SegmentPath& path, double plane_z) {
  SegmentPath out;
  out.segments.reserve(path.segments.size() * 2);
  for (const Segment& s : path.segments) {
    if (s.a.z < plane_z - 1e-9 || s.b.z < plane_z - 1e-9) {
      throw std::invalid_argument(
          "with_ground_plane: conductor below the ground plane");
    }
    out.segments.push_back(s);
  }
  for (const Segment& s : path.segments) {
    out.segments.push_back(
        {mirror_point(s.a, plane_z), mirror_point(s.b, plane_z), s.radius, -s.weight});
  }
  return out;
}

Henry GroundedCouplingExtractor::self_inductance(const ComponentFieldModel& m) const {
  // Not cached, unlike the free-space extractor: grounded extraction serves
  // rule studies, not inner loops.
  // The energy belongs to the real conductor only, so L = L_rr + L_ri: the
  // real path's loop inductance plus its mutual with the image. The full
  // double sum over real + image would also add the image/image term.
  // with_ground_plane rejects a conductor below the plane; its second half
  // is the image path.
  const SegmentPath mirrored = with_ground_plane(m.local_path, plane_z_);
  SegmentPath image;
  image.segments.assign(mirrored.segments.begin() +
                            static_cast<std::ptrdiff_t>(m.local_path.segments.size()),
                        mirrored.segments.end());
  return Henry{m.mu_eff * (path_inductance(m.local_path, opt_) +
                           path_mutual(m.local_path, image, opt_))};
}

Henry GroundedCouplingExtractor::mutual(const PlacedModel& a,
                                        const PlacedModel& b) const {
  if (a.model == nullptr || b.model == nullptr) {
    throw std::invalid_argument("GroundedCouplingExtractor::mutual: null model");
  }
  // Flux of (B real + B image) through the real receiving path: couple the
  // full mirrored source path against the real segments of b.
  const SegmentPath pa = with_ground_plane(a.model->path_at(a.pose), plane_z_);
  const SegmentPath pb = b.model->path_at(b.pose);
  return Henry{a.model->stray_scale * b.model->stray_scale * path_mutual(pa, pb, opt_)};
}

double GroundedCouplingExtractor::coupling_factor(const PlacedModel& a,
                                                  const PlacedModel& b) const {
  // The mutual first: it rejects a null model before a self term reads it.
  const Henry m = mutual(a, b);
  return coupling_ratio(m, self_inductance(*a.model), self_inductance(*b.model));
}

double GroundedCouplingExtractor::coupling_at(const ComponentFieldModel& a,
                                              const ComponentFieldModel& b,
                                              Millimeters center_distance,
                                              double rot_a_deg, double rot_b_deg) const {
  const PlacedModel pa{&a, Pose{{0.0, 0.0, 0.0}, rot_a_deg}};
  const PlacedModel pb{&b, Pose{{center_distance.raw(), 0.0, 0.0}, rot_b_deg}};
  return coupling_factor(pa, pb);
}

}  // namespace emi::peec
