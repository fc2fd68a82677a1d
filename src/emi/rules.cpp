#include "src/emi/rules.hpp"

#include <cmath>

#include "src/geom/angle.hpp"

namespace emi::emc {

Millimeters effective_min_distance(Millimeters pemd, double axis_angle_deg) {
  const double folded = geom::axis_angle_deg(0.0, axis_angle_deg);
  return pemd * std::fabs(std::cos(geom::deg_to_rad(folded)));
}

MinDistanceRule RuleDeriver::derive(const peec::ComponentFieldModel& a,
                                    const peec::ComponentFieldModel& b) const {
  const peec::ModelPair pair{&a, &b};
  return derive({&pair, 1}).front();
}

std::vector<MinDistanceRule> RuleDeriver::derive(
    std::span<const peec::ModelPair> pairs) const {
  const std::vector<Millimeters> pemd = extractor_->min_distances_for_coupling(
      pairs, opt_.k_threshold, opt_.d_search_lo, opt_.d_search_hi, opt_.tol);
  std::vector<MinDistanceRule> out;
  out.reserve(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    out.push_back({pairs[p].first->name, pairs[p].second->name, pemd[p], opt_.k_threshold});
  }
  return out;
}

std::vector<MinDistanceRule> RuleDeriver::derive_all(
    const std::vector<const peec::ComponentFieldModel*>& models) const {
  std::vector<peec::ModelPair> pairs;
  pairs.reserve(models.size() * (models.size() - 1) / 2);
  for (std::size_t i = 0; i < models.size(); ++i) {
    for (std::size_t j = i + 1; j < models.size(); ++j) {
      pairs.emplace_back(models[i], models[j]);
    }
  }
  return derive(pairs);
}

}  // namespace emi::emc
