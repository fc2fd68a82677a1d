// Tour of the placement tool on the complex 29-device board (paper Fig 9 /
// 18): automatic placement under ~100 minimum-distance rules and 3
// functional groups, followed by an interactive editing session with online
// DRC - the adviser workflow the paper describes in section 4.
//
// Build & run:  ./build/examples/placement_tour
#include <cstdio>
#include <iostream>
#include <fstream>
#include <sstream>

#include "src/flow/demo_board.hpp"
#include "src/io/design_format.hpp"
#include "src/io/svg.hpp"
#include "src/io/reports.hpp"
#include "src/place/interactive.hpp"
#include "src/place/metrics.hpp"
#include "src/place/placer.hpp"

int main() {
  using namespace emi;

  place::Design board = flow::make_demo_board();
  const flow::DemoBoardInfo info = flow::demo_board_info(board);
  std::printf("demo board: %zu devices, %zu minimum-distance rules, %zu groups, "
              "%zu nets\n",
              info.n_components, info.n_emd_rules, info.n_groups, info.n_nets);

  // --- automatic placement ---------------------------------------------------
  place::Layout layout = flow::demo_board_initial_layout(board);
  const place::PlaceStats stats = place::auto_place(board, layout);
  std::printf("\nautomatic placement: %zu placed, %zu failed, %.1f ms "
              "(%zu candidates tried)\n",
              stats.placed, stats.failed, stats.elapsed_seconds * 1e3,
              stats.candidates_evaluated);
  std::printf("rotation step: total EMD %.0f mm -> %.0f mm\n",
              stats.rotation_emd_before_mm, stats.rotation_emd_after_mm);

  const place::DrcReport report = place::DrcEngine(board).check(layout);
  std::printf("DRC: %s (%zu violations)\n",
              report.clean() ? "CLEAN" : "VIOLATIONS", report.violations.size());

  const place::LayoutMetrics metrics = place::compute_metrics(board, layout);
  std::printf("metrics: HPWL %.0f mm, utilization %.0f%%, min EMD slack %.1f mm\n",
              metrics.total_hpwl_mm, metrics.utilization * 100.0,
              metrics.min_emd_slack_mm);

  std::printf("\nfunctional groups (Fig 18):\n");
  for (const auto& g : place::group_boxes(board, layout)) {
    std::printf("  %-12s %zu members, bbox [%.0f,%.0f]..[%.0f,%.0f]\n",
                g.group.c_str(), g.members, g.bbox.lo.x, g.bbox.lo.y, g.bbox.hi.x,
                g.bbox.hi.y);
  }

  // --- interactive session ----------------------------------------------------
  std::printf("\ninteractive session: dragging choke LF1 next to choke LF2...\n");
  place::InteractiveSession session(board, layout);
  const std::size_t lf2 = board.component_index("LF2");
  const geom::Vec2 target = layout.placements[lf2].position + geom::Vec2{16.0, 0.0};
  const place::EditFeedback fb = session.move("LF1", target);
  std::printf("  online DRC: %zu violation(s)%s\n", fb.violations.size(),
              fb.legal() ? "" : " - component shows RED");
  for (const auto& v : fb.violations) {
    std::printf("    %s %s <-> %s (need %.1f mm, have %.1f mm)\n",
                place::to_string(v.kind).c_str(), v.a.c_str(), v.b.c_str(),
                v.required, v.actual);
  }

  if (const auto rot = session.suggest_rotation("LF1")) {
    std::printf("  adviser: rotating LF1 to %.0f deg decouples the axes\n", *rot);
    const place::EditFeedback fb2 = session.rotate("LF1", *rot);
    std::printf("  after rotation: %zu violation(s)\n", fb2.violations.size());
  } else if (const auto pos = session.suggest_position("LF1", target)) {
    std::printf("  adviser: nearest legal position is (%.1f, %.1f)\n", pos->x,
                pos->y);
    session.move("LF1", *pos);
  }
  std::printf("  undo -> %s\n", session.undo() ? "restored" : "nothing to undo");

  // --- ASCII round trip --------------------------------------------------------
  std::stringstream file;
  io::save_design(file, board, &layout);
  const io::LoadedDesign reloaded = io::try_load_design(file).value();
  std::printf("\nASCII interface round trip: %zu components, %zu rules reloaded\n",
              reloaded.design.components().size(), reloaded.design.emd_rules().size());

  // --- SVG rendering (the Figs 16/18-style view) -------------------------------
  std::ofstream svg("demo29_layout.svg");
  if (svg) {
    io::write_layout_svg(svg, board, layout);
    std::printf("layout rendered to demo29_layout.svg (groups colored, EMD "
                "circles green)\n");
  }

  return report.clean() && stats.failed == 0 ? 0 : 1;
}
