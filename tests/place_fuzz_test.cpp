// Randomized property tests for the placement stack: generate random but
// well-formed designs (components, rules, groups, keepouts, nets) from a
// seed and check the engine invariants that must hold on EVERY input:
//   * auto_place output passes the full DRC whenever everything placed
//   * compaction and refinement never break a legal layout
//   * the ASCII interface round-trips the design losslessly
//   * is_legal() agrees with the DRC on the placements the placer produced
#include <gtest/gtest.h>

#include <sstream>

#include "src/io/design_format.hpp"
#include "src/numeric/rng.hpp"
#include "src/place/compactor.hpp"
#include "src/place/drc.hpp"
#include "src/place/placer.hpp"
#include "src/place/refine.hpp"

namespace emi::place {
namespace {

Design random_design(std::uint64_t seed) {
  num::Rng rng(seed);
  Design d;
  d.set_clearance(Millimeters{rng.uniform(0.5, 1.5)});

  const double bw = rng.uniform(90.0, 160.0);
  const double bh = rng.uniform(70.0, 120.0);
  d.add_area({"board", 0,
              geom::Polygon::rectangle(geom::Rect::from_corners({0, 0}, {bw, bh}))});

  // Occasionally a keepout in a corner (kept small so designs stay feasible).
  if (rng.uniform() < 0.5) {
    const double kw = rng.uniform(10.0, 25.0);
    const double kh = rng.uniform(10.0, 20.0);
    d.add_keepout({"ko", 0,
                   {geom::Rect::from_corners({bw - kw, 0.0}, {bw, kh}),
                    rng.uniform() < 0.3 ? 6.0 : 0.0, 1e9}});
  }

  const std::size_t n = 4 + rng.below(8);
  const char* groups[] = {"", "g1", "g2"};
  for (std::size_t i = 0; i < n; ++i) {
    Component c;
    c.name = "C" + std::to_string(i);
    c.width_mm = rng.uniform(5.0, 18.0);
    c.depth_mm = rng.uniform(4.0, 14.0);
    c.height_mm = rng.uniform(2.0, 15.0);
    c.axis_deg = rng.uniform() < 0.8 ? 90.0 : 0.0;
    c.group = groups[rng.below(3)];
    d.add_component(c);
  }

  // Sparse EMD rules.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < 0.35) {
        d.add_emd_rule("C" + std::to_string(i), "C" + std::to_string(j),
                       Millimeters{rng.uniform(8.0, 22.0)});
      }
    }
  }

  // A few random 2-3 pin nets.
  const std::size_t n_nets = 1 + rng.below(4);
  for (std::size_t k = 0; k < n_nets; ++k) {
    Net net;
    net.name = "N" + std::to_string(k);
    const std::size_t pins = 2 + rng.below(2);
    for (std::size_t p = 0; p < pins; ++p) {
      net.pins.push_back({"C" + std::to_string(rng.below(n)), ""});
    }
    d.add_net(net);
  }
  return d;
}

class PlaceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlaceFuzz, EngineInvariants) {
  const std::uint64_t seed = GetParam();
  Design d = random_design(seed);
  Layout layout = Layout::unplaced(d);
  const PlaceStats stats = auto_place(d, layout);

  // Placement either fully succeeds with a clean DRC, or reports failures
  // honestly (unplaced components show up in the DRC as kUnplaced only).
  const DrcEngine drc(d);
  const DrcReport rep = drc.check(layout);
  if (stats.failed == 0) {
    EXPECT_TRUE(rep.clean()) << "seed " << seed;
  } else {
    EXPECT_EQ(rep.count(ViolationKind::kUnplaced), stats.failed) << "seed " << seed;
    for (const Violation& v : rep.violations) {
      EXPECT_EQ(v.kind, ViolationKind::kUnplaced) << "seed " << seed << ": "
                                                  << to_string(v.kind);
    }
  }

  // is_legal agrees with the DRC for each placed component.
  const SequentialPlacer placer(d);
  for (std::size_t i = 0; i < d.components().size(); ++i) {
    if (layout.placements[i].placed && stats.failed == 0) {
      EXPECT_TRUE(placer.is_legal(layout, i, layout.placements[i]))
          << "seed " << seed << " comp " << d.components()[i].name;
    }
  }

  if (stats.failed == 0) {
    // Compaction keeps legality and never grows the area.
    Layout compacted = layout;
    const CompactionResult cres = compact_layout(d, compacted);
    EXPECT_LE(cres.area_after_mm2, cres.area_before_mm2 + 1e-9) << "seed " << seed;
    EXPECT_TRUE(drc.check(compacted).clean()) << "seed " << seed;

    // Refinement keeps legality and never worsens the cost.
    Layout refined = layout;
    RefineOptions ropt;
    ropt.iterations = 600;
    ropt.seed = seed + 1;
    const RefineResult rres = refine_layout(d, refined, ropt);
    EXPECT_LE(rres.cost_after, rres.cost_before + 1e-9)
        << "seed " << seed;
    EXPECT_TRUE(drc.check(refined).clean()) << "seed " << seed;
  }

  // ASCII round trip is lossless at the structural level.
  std::stringstream buf;
  io::save_design(buf, d, &layout);
  const io::LoadedDesign reloaded = io::try_load_design(buf).value();
  EXPECT_EQ(reloaded.design.components().size(), d.components().size());
  EXPECT_EQ(reloaded.design.emd_rules().size(), d.emd_rules().size());
  EXPECT_EQ(reloaded.design.nets().size(), d.nets().size());
  EXPECT_EQ(reloaded.design.keepouts().size(), d.keepouts().size());
  for (std::size_t i = 0; i < d.components().size(); ++i) {
    EXPECT_EQ(reloaded.layout.placements[i].placed, layout.placements[i].placed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaceFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace emi::place
