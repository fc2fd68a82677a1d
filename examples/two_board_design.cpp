// Two rigid boards, partitioning, compaction, and interchange: the
// remaining tool features in one walkthrough.
//
//   1. Load the 29-device circuit with a second board (control electronics
//      pinned there, per the paper: "1 or 2 rigid connected boards").
//   2. Automatic flow: rotation -> FM partitioning -> sequential placement.
//   3. Volume minimization on each board.
//   4. Save the design + layout through the ASCII interface and export the
//      buck converter's equivalent circuit as a SPICE deck.
//
// Build & run:  ./build/examples/two_board_design
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/flow/buck_converter.hpp"
#include "src/flow/demo_board.hpp"
#include "src/io/design_format.hpp"
#include "src/io/spice.hpp"
#include "src/place/compactor.hpp"
#include "src/place/drc.hpp"
#include "src/place/metrics.hpp"
#include "src/place/placer.hpp"

int main() {
  using namespace emi;

  // --- 1/2: place across two boards -----------------------------------------
  place::Design board = flow::make_demo_board_two_boards();
  place::Layout layout = flow::demo_board_initial_layout(board);
  const place::PlaceStats stats = place::auto_place(board, layout);
  std::printf("two-board placement: %zu placed, %zu failed, %zu cut nets, %.1f ms\n",
              stats.placed, stats.failed, stats.cut_nets,
              stats.elapsed_seconds * 1e3);
  std::printf("board assignment:");
  for (std::size_t i = 0; i < board.components().size(); ++i) {
    if (layout.placements[i].board == 1) {
      std::printf(" %s", board.components()[i].name.c_str());
    }
  }
  std::printf(" -> board 1 (control side)\n");

  const place::DrcReport rep = place::DrcEngine(board).check(layout);
  std::printf("DRC: %s (%zu violations)\n", rep.clean() ? "CLEAN" : "VIOLATED",
              rep.violations.size());

  // --- 3: compact ------------------------------------------------------------
  const place::CompactionResult comp = place::compact_layout(board, layout);
  std::printf("compaction: area %.0f -> %.0f mm^2 (%.0f%% saved), still %s\n",
              comp.area_before_mm2, comp.area_after_mm2, comp.reduction() * 100.0,
              place::DrcEngine(board).check(layout).clean() ? "CLEAN" : "VIOLATED");

  // --- 4: interchange --------------------------------------------------------
  std::stringstream design_file;
  io::save_design(design_file, board, &layout);
  const io::LoadedDesign reloaded = io::try_load_design(design_file).value();
  std::printf("ASCII round trip: %zu components, %zu rules, %zu areas reloaded\n",
              reloaded.design.components().size(),
              reloaded.design.emd_rules().size(), reloaded.design.areas().size());

  const flow::BuckConverter bc = flow::make_buck_converter();
  std::stringstream spice;
  io::write_spice_netlist(spice, bc.circuit, {"buck converter EMI model",
                                              true, 150e3, 108e6, 40});
  const std::string deck = spice.str();
  std::printf("SPICE export: %zu lines (buck converter equivalent circuit)\n",
              static_cast<std::size_t>(std::count(deck.begin(), deck.end(), '\n')));

  return rep.clean() && stats.failed == 0 ? 0 : 1;
}
