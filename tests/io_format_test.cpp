#include "src/io/design_format.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "src/io/reports.hpp"
#include "src/place/drc.hpp"
#include "src/place/metrics.hpp"

using emi::units::Millimeters;

namespace emi::io {
namespace {

constexpr const char* kSample = R"(# sample design
boards 2
clearance 0.8
component CX1 26 10 12 axis=90 group=filter rot=0,90,180,270 prefrot=90
component LF 14 16 14 axis=90 group=filter areas=main prefareas=main
component CONN 18 8 10
pin CX1 1 -11.25 0
pin CX1 2 11.25 0
net N1 maxlen=80 CX1.1 LF
net N2 CX1.2 CONN
area main 0 0 0 100 0 100 60 0 60
area aux 1 0 0 50 0 50 40 0 40
keepout heatsink 0 70 10 95 40 0 1e9
keepout rib 0 0 50 100 60 8 1e9
pemd CX1 LF 21.5
place CONN 10 6 0 0
)";

TEST(DesignFormat, ParsesEverything) {
  std::istringstream in(kSample);
  const LoadedDesign ld = try_load_design(in).value();
  const place::Design& d = ld.design;
  EXPECT_EQ(d.board_count(), 2);
  EXPECT_DOUBLE_EQ(d.clearance().raw(), 0.8);
  ASSERT_EQ(d.components().size(), 3u);
  const place::Component& cx1 = d.components()[d.component_index("CX1")];
  EXPECT_DOUBLE_EQ(cx1.width_mm, 26.0);
  EXPECT_EQ(cx1.group, "filter");
  ASSERT_EQ(cx1.pins.size(), 2u);
  EXPECT_DOUBLE_EQ(cx1.pins[0].offset.x, -11.25);
  ASSERT_EQ(cx1.preferred_rotations.size(), 1u);
  EXPECT_DOUBLE_EQ(cx1.preferred_rotations[0], 90.0);
  const place::Component& lf = d.components()[d.component_index("LF")];
  ASSERT_EQ(lf.allowed_areas.size(), 1u);
  EXPECT_EQ(lf.allowed_areas[0], "main");
  ASSERT_EQ(d.nets().size(), 2u);
  EXPECT_DOUBLE_EQ(d.nets()[0].max_length_mm, 80.0);
  EXPECT_EQ(d.nets()[0].pins[0].pin, "1");
  EXPECT_EQ(d.nets()[1].pins[1].pin, "");
  ASSERT_EQ(d.areas().size(), 2u);
  EXPECT_EQ(d.areas()[1].board, 1);
  ASSERT_EQ(d.keepouts().size(), 2u);
  EXPECT_DOUBLE_EQ(d.keepouts()[1].volume.z_lo, 8.0);
  ASSERT_EQ(d.emd_rules().size(), 1u);
  EXPECT_DOUBLE_EQ(d.emd_rules()[0].pemd.raw(), 21.5);
  // Preplacement applied.
  const std::size_t conn = d.component_index("CONN");
  EXPECT_TRUE(ld.layout.placements[conn].placed);
  EXPECT_TRUE(d.components()[conn].preplaced);
  EXPECT_EQ(ld.layout.placements[conn].position, (geom::Vec2{10, 6}));
}

TEST(DesignFormat, RoundTripPreservesStructure) {
  std::istringstream in(kSample);
  const LoadedDesign ld = try_load_design(in).value();
  std::stringstream buf;
  save_design(buf, ld.design, &ld.layout);
  const LoadedDesign ld2 = try_load_design(buf).value();
  EXPECT_EQ(ld2.design.components().size(), ld.design.components().size());
  EXPECT_EQ(ld2.design.nets().size(), ld.design.nets().size());
  EXPECT_EQ(ld2.design.areas().size(), ld.design.areas().size());
  EXPECT_EQ(ld2.design.keepouts().size(), ld.design.keepouts().size());
  EXPECT_EQ(ld2.design.emd_rules().size(), ld.design.emd_rules().size());
  EXPECT_DOUBLE_EQ(ld2.design.clearance().raw(), ld.design.clearance().raw());
  EXPECT_EQ(ld2.design.board_count(), ld.design.board_count());
  for (std::size_t i = 0; i < ld.layout.placements.size(); ++i) {
    EXPECT_EQ(ld2.layout.placements[i].placed, ld.layout.placements[i].placed);
    if (ld.layout.placements[i].placed) {
      EXPECT_EQ(ld2.layout.placements[i].position, ld.layout.placements[i].position);
    }
  }
}

TEST(DesignFormat, ErrorsCarryLineNumbers) {
  const auto expect_error_line = [](const std::string& text, std::size_t line) {
    std::istringstream in(text);
    const core::Result<LoadedDesign> r = try_load_design(in);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), core::ErrorCode::kParseError) << text;
    EXPECT_EQ(r.status().message().rfind("line " + std::to_string(line) + ":", 0), 0u)
        << r.status().to_string();
  };
  expect_error_line("component A 1 1 1\nbogus_keyword x\n", 2);
  expect_error_line("component A 1 1\n", 1);                    // missing field
  expect_error_line("component A 1 1 1 wat\n", 1);              // not key=value
  expect_error_line("component A 1 1 1 board=x\n", 1);          // bad int
  expect_error_line("pemd A B 5\n", 1);                         // unknown comp
  expect_error_line("area a 0 0 0 1 1\n", 1);                   // too few points
  expect_error_line("pin A p 0 0\n", 1);                        // unknown comp
  expect_error_line("place A 0 0 0 0\n", 1);                    // unknown comp
  expect_error_line("component A 1 1 1\nnet n A.1 A\nnet\n", 3);
}

TEST(DesignFormat, LayoutOnlyRoundTrip) {
  std::istringstream in(kSample);
  const LoadedDesign ld = try_load_design(in).value();
  place::Layout l = place::Layout::unplaced(ld.design);
  l.placements[0] = {{12.5, 30.0}, 90.0, 0, true};
  l.placements[2] = {{80.0, 20.0}, 180.0, 1, true};
  std::stringstream buf;
  save_layout(buf, ld.design, l);
  const place::Layout l2 = try_load_layout(buf, ld.design).value();
  EXPECT_EQ(l2.placements[0].position, (geom::Vec2{12.5, 30.0}));
  EXPECT_DOUBLE_EQ(l2.placements[0].rot_deg, 90.0);
  EXPECT_FALSE(l2.placements[1].placed);
  EXPECT_EQ(l2.placements[2].board, 1);
}

TEST(DesignFormat, CommentsAndBlanksIgnored) {
  std::istringstream in("\n# full line comment\n  \ncomponent A 1 1 1 # trailing\n");
  const LoadedDesign ld = try_load_design(in).value();
  EXPECT_EQ(ld.design.components().size(), 1u);
}

TEST(DesignFormat, MissingFileIsIoError) {
  EXPECT_EQ(try_load_design_file("/nonexistent/path.design").status().code(),
            core::ErrorCode::kIoError);
}

TEST(Reports, DrcReportMentionsStatus) {
  place::Design d;
  d.add_area({"b", 0, geom::Polygon::rectangle(geom::Rect::from_corners({0, 0}, {50, 50}))});
  place::Component c;
  c.name = "A";
  d.add_component(c);
  c.name = "B";
  d.add_component(c);
  d.add_emd_rule("A", "B", Millimeters{30.0});
  place::Layout l = place::Layout::unplaced(d);
  l.placements[0] = {{10, 10}, 0.0, 0, true};
  l.placements[1] = {{20, 10}, 0.0, 0, true};
  const place::DrcReport r = place::DrcEngine(d).check(l);
  std::stringstream out;
  write_drc_report(out, r);
  const std::string text = out.str();
  EXPECT_NE(text.find("VIOLATIONS"), std::string::npos);
  EXPECT_NE(text.find("[RED]"), std::string::npos);
  EXPECT_NE(text.find("EMD"), std::string::npos);
}

TEST(Reports, SpectrumCsvHasLimitColumn) {
  emc::EmissionSpectrum spec;
  spec.freqs_hz = {0.2e6, 3e6};
  spec.level_dbuv = {55.0, 60.0};
  std::stringstream out;
  write_spectrum_csv(out, spec, 3);
  std::string line;
  std::getline(out, line);
  EXPECT_EQ(line, "freq_hz,level_dbuv,limit_dbuv");
  std::getline(out, line);
  EXPECT_EQ(line, "200000,55,94");  // LW class 3 = 110 - 16
  std::getline(out, line);
  EXPECT_EQ(line, "3e+06,60,");  // out of band: empty limit cell
}

TEST(Reports, LayoutTableListsAll) {
  place::Design d;
  d.add_area({"b", 0, geom::Polygon::rectangle(geom::Rect::from_corners({0, 0}, {50, 50}))});
  place::Component c;
  c.name = "A";
  d.add_component(c);
  place::Layout l = place::Layout::unplaced(d);
  std::stringstream out;
  write_layout_table(out, d, l);
  EXPECT_NE(out.str().find("A,0,0,0,0,0"), std::string::npos);
}

}  // namespace
}  // namespace emi::io
