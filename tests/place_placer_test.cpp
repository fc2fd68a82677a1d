#include "src/place/placer.hpp"

#include <gtest/gtest.h>

#include "src/place/drc.hpp"

namespace emi::place {
namespace {

Design basic_design(std::size_t n_comps, double pemd = 0.0) {
  Design d;
  d.set_clearance(Millimeters{1.0});
  d.add_area({"board", 0,
              geom::Polygon::rectangle(geom::Rect::from_corners({0, 0}, {100, 80}))});
  for (std::size_t i = 0; i < n_comps; ++i) {
    Component c;
    c.name = "C" + std::to_string(i);
    c.width_mm = 12;
    c.depth_mm = 8;
    c.height_mm = 5;
    c.axis_deg = 90.0;
    d.add_component(c);
  }
  if (pemd > 0.0) {
    for (std::size_t i = 0; i < n_comps; ++i) {
      for (std::size_t j = i + 1; j < n_comps; ++j) {
        d.add_emd_rule("C" + std::to_string(i), "C" + std::to_string(j), Millimeters{pemd});
      }
    }
  }
  return d;
}

TEST(AutoPlace, AllPlacedAndClean) {
  Design d = basic_design(6, 18.0);
  Layout l = Layout::unplaced(d);
  const PlaceStats stats = auto_place(d, l);
  EXPECT_EQ(stats.placed, 6u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_TRUE(DrcEngine(d).check(l).clean());
  EXPECT_GT(stats.candidates_evaluated, 0u);
  EXPECT_LE(stats.rotation_emd_after_mm, stats.rotation_emd_before_mm);
}

TEST(AutoPlace, Deterministic) {
  Design d = basic_design(5, 15.0);
  Layout l1 = Layout::unplaced(d);
  Layout l2 = Layout::unplaced(d);
  auto_place(d, l1);
  auto_place(d, l2);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(l1.placements[i].position, l2.placements[i].position);
    EXPECT_EQ(l1.placements[i].rot_deg, l2.placements[i].rot_deg);
  }
}

TEST(AutoPlace, PreplacedIsObstacle) {
  Design d = basic_design(3);
  d.components()[0].preplaced = true;
  Layout l = Layout::unplaced(d);
  l.placements[0] = {{50, 40}, 0.0, 0, true};
  const PlaceStats stats = auto_place(d, l);
  EXPECT_EQ(stats.placed, 2u);  // only the two free ones
  EXPECT_EQ(l.placements[0].position, (geom::Vec2{50, 40}));
  EXPECT_TRUE(DrcEngine(d).check(l).clean());
}

TEST(AutoPlace, RespectsKeepouts) {
  Design d = basic_design(4);
  // Block most of the board except a corridor.
  d.add_keepout({"big", 0,
                 geom::Cuboid::full_height(geom::Rect::from_corners({0, 20}, {100, 80}))});
  Layout l = Layout::unplaced(d);
  const PlaceStats stats = auto_place(d, l);
  EXPECT_EQ(stats.failed, 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(d.footprint(i, l.placements[i]).hi.y, 20.0 + 1e-9);
  }
}

TEST(AutoPlace, HonorsNetLengthCaps) {
  Design d = basic_design(4);
  d.add_net({"short", {{"C0", ""}, {"C1", ""}}, 25.0});
  Layout l = Layout::unplaced(d);
  const PlaceStats stats = auto_place(d, l);
  EXPECT_EQ(stats.failed, 0u);
  const DrcReport r = DrcEngine(d).check(l);
  EXPECT_EQ(r.count(ViolationKind::kNetLength), 0u);
}

TEST(AutoPlace, GroupsEndUpDisjoint) {
  Design d = basic_design(8);
  for (std::size_t i = 0; i < 8; ++i) {
    d.components()[i].group = i < 4 ? "g1" : "g2";
  }
  Layout l = Layout::unplaced(d);
  const PlaceStats stats = auto_place(d, l);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(DrcEngine(d).check(l).count(ViolationKind::kGroupSplit), 0u);
}

TEST(AutoPlace, ImpossibleRuleFails) {
  // Two components, rule far larger than the board diagonal, rotation
  // restricted to parallel: nowhere to go.
  Design d = basic_design(2, 500.0);
  for (auto& c : d.components()) c.allowed_rotations = {0.0};
  Layout l = Layout::unplaced(d);
  const PlaceStats stats = auto_place(d, l);
  EXPECT_EQ(stats.failed, 1u);
  ASSERT_EQ(stats.failed_components.size(), 1u);
}

TEST(AutoPlace, TwoBoardFlowUsesPartitioning) {
  Design d;
  d.set_clearance(Millimeters{1.0});
  d.set_board_count(2);
  d.add_area({"b0", 0, geom::Polygon::rectangle(geom::Rect::from_corners({0, 0}, {60, 60}))});
  d.add_area({"b1", 1, geom::Polygon::rectangle(geom::Rect::from_corners({0, 0}, {60, 60}))});
  for (int i = 0; i < 6; ++i) {
    Component c;
    c.name = "C" + std::to_string(i);
    c.width_mm = 10;
    c.depth_mm = 10;
    d.add_component(c);
  }
  d.add_net({"n1", {{"C0", ""}, {"C1", ""}, {"C2", ""}}});
  d.add_net({"n2", {{"C3", ""}, {"C4", ""}, {"C5", ""}}});
  Layout l = Layout::unplaced(d);
  const PlaceStats stats = auto_place(d, l);
  EXPECT_EQ(stats.failed, 0u);
  // Each cluster stays on one board, no net is cut.
  EXPECT_EQ(stats.cut_nets, 0u);
  EXPECT_EQ(l.placements[0].board, l.placements[1].board);
  EXPECT_EQ(l.placements[3].board, l.placements[4].board);
  EXPECT_TRUE(DrcEngine(d).check(l).clean());
}

TEST(SequentialPlacer, PriorityPutsConstrainedFirst) {
  Design d = basic_design(3);
  d.add_emd_rule("C1", "C2", Millimeters{30.0});  // C1, C2 carry EMD budget, C0 none
  const SequentialPlacer p(d);
  const auto order = p.priority_order();
  EXPECT_EQ(order.back(), d.component_index("C0"));
}

TEST(SequentialPlacer, IsLegalChecksEverything) {
  Design d = basic_design(2, 30.0);
  Layout l = Layout::unplaced(d);
  l.placements[0] = {{20, 20}, 0.0, 0, true};
  const SequentialPlacer p(d);
  // Too close (EMD).
  EXPECT_FALSE(p.is_legal(l, 1, {{35, 20}, 0.0, 0, true}));
  // Same spot but perpendicular: legal (EMD -> 0, no overlap).
  EXPECT_TRUE(p.is_legal(l, 1, {{35, 20}, 90.0, 0, true}));
  // Far enough with parallel axes: legal.
  EXPECT_TRUE(p.is_legal(l, 1, {{60, 20}, 0.0, 0, true}));
  // Outside the board: illegal.
  EXPECT_FALSE(p.is_legal(l, 1, {{99, 20}, 0.0, 0, true}));
  // Overlapping: illegal even if rotated.
  EXPECT_FALSE(p.is_legal(l, 1, {{21, 20}, 90.0, 0, true}));
}

TEST(SequentialPlacer, SizeMismatchThrows) {
  Design d = basic_design(2);
  Layout l;
  l.placements.resize(1);
  std::vector<double> rots(2, 0.0);
  std::vector<int> boards(2, 0);
  EXPECT_THROW(SequentialPlacer(d).place(l, rots, boards), std::invalid_argument);
}

// Property sweep: growing component counts keep the layout legal.
class PlacerScale : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlacerScale, AlwaysLegal) {
  Design d = basic_design(GetParam(), 14.0);
  Layout l = Layout::unplaced(d);
  const PlaceStats stats = auto_place(d, l);
  EXPECT_EQ(stats.failed, 0u) << "n = " << GetParam();
  EXPECT_TRUE(DrcEngine(d).check(l).clean());
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlacerScale, ::testing::Values(2, 4, 8, 12, 16));

}  // namespace
}  // namespace emi::place
