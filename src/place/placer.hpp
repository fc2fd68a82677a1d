// Step 3 of the automatic placement method: sequential placement of
// components on the continuous plane (no grid), with all design rules
// enforced at insertion time. Components are prioritized by how constrained
// they are (EMD budget, area, connectivity) and placed one at a time at the
// best legal candidate position.
//
// Candidate generation mixes contact positions (sliding against already
// placed footprints and area corners - how tight layouts arise on a
// continuous plane) with a coarse area sampling fallback.
//
// auto_place() runs the paper's full three-step flow:
//   1) optimal rotation, 2) optional bipartitioning, 3) sequential placement.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/place/design.hpp"
#include "src/place/drc.hpp"
#include "src/place/partition.hpp"
#include "src/place/rotation.hpp"

namespace emi::place {

struct PlacerOptions {
  // Cost weights.
  double w_netlength = 1.0;   // HPWL of nets touching the component
  double w_group = 2.0;       // pull towards the group's running centroid
  double w_pack = 0.25;       // pull towards the area centroid (compactness)
  // Candidate generation.
  double grid_step_mm = 4.0;          // coarse sampling step of area bboxes
  double refine_factor = 0.5;         // step multiplier per retry
  std::size_t max_refines = 3;
  bool try_all_rotations = false;     // re-evaluate rotations per candidate
};

struct AutoPlaceOptions {
  PlacerOptions placer{};
  RotationOptions rotation{};
  PartitionOptions partition{};
  bool run_partitioning = true;  // only applies when board_count() == 2
};

struct PlaceStats {
  std::size_t placed = 0;
  std::size_t failed = 0;
  std::vector<std::string> failed_components;
  std::size_t candidates_evaluated = 0;
  double rotation_emd_before_mm = 0.0;
  double rotation_emd_after_mm = 0.0;
  std::size_t cut_nets = 0;
  double elapsed_seconds = 0.0;
};

class SequentialPlacer {
 public:
  explicit SequentialPlacer(const Design& d) : design_(&d) {}

  // Place all unplaced components of `layout` (preplaced ones are obstacles)
  // using the given per-component rotations and board assignment.
  PlaceStats place(Layout& layout, const std::vector<double>& rotations,
                   const std::vector<int>& boards, const PlacerOptions& opt = {}) const;

  // Placement priority: descending PEMD budget, then area, then net degree.
  std::vector<std::size_t> priority_order() const;

  // Legality of one placement against the already-placed part of a layout.
  bool is_legal(const Layout& layout, std::size_t comp, const Placement& cand) const;

 private:
  const Design* design_;
};

// Full three-step automatic flow. Respects preplaced components in `layout`.
PlaceStats auto_place(const Design& d, Layout& layout,
                      const AutoPlaceOptions& opt = {});

}  // namespace emi::place
