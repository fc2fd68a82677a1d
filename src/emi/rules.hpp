// Design-rule derivation: turn field-model coupling curves into the pairwise
// minimum-distance rules (PEMD) the placement tool consumes, and implement
// the paper's orientation law  EMD_ij = PEMD_ij * |cos(alpha_ij)|  where
// alpha is the angle between the two magnetic axes (section 4 / Fig 10).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/core/units.hpp"
#include "src/peec/coupling.hpp"

namespace emi::emc {

using units::Millimeters;

struct MinDistanceRule {
  std::string comp_a;
  std::string comp_b;
  Millimeters pemd;     // minimum distance at parallel magnetic axes
  double k_threshold;   // coupling level the rule guarantees staying under
};

// Effective minimum distance after rotation; angle in degrees between the
// two magnetic axes (folded to [0, 90]).
Millimeters effective_min_distance(Millimeters pemd, double axis_angle_deg);

struct RuleDeriverOptions {
  // A coupling factor of 0.01 "already severely influences the behavior of
  // for example a pi filter circuit" - the default rule threshold.
  double k_threshold = 0.01;
  Millimeters d_search_lo{2.0};
  Millimeters d_search_hi{200.0};
  Millimeters tol{0.25};
};

class RuleDeriver {
 public:
  RuleDeriver(const peec::CouplingExtractor& extractor, RuleDeriverOptions opt = {})
      : extractor_(&extractor), opt_(opt) {}

  // PEMD for one component pair (worst case: parallel axes).
  MinDistanceRule derive(const peec::ComponentFieldModel& a,
                         const peec::ComponentFieldModel& b) const;

  // PEMD for every pair, in input order: one lockstep search over all of
  // them (CouplingExtractor::min_distances_for_coupling), each rule
  // bit-identical to derive(a, b).
  std::vector<MinDistanceRule> derive(std::span<const peec::ModelPair> pairs) const;

  // Full pairwise rule table; the paper's n(n-1)/2 minimum distances.
  std::vector<MinDistanceRule> derive_all(
      const std::vector<const peec::ComponentFieldModel*>& models) const;

  const RuleDeriverOptions& options() const { return opt_; }

 private:
  const peec::CouplingExtractor* extractor_;
  RuleDeriverOptions opt_;
};

}  // namespace emi::emc
