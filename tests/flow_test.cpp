#include <gtest/gtest.h>

#include <cmath>

#include "src/emi/cispr25.hpp"
#include "src/emi/measurement.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/demo_board.hpp"
#include "src/flow/design_flow.hpp"
#include "src/numeric/stats.hpp"
#include "src/place/drc.hpp"
#include "src/place/placer.hpp"

namespace emi::flow {
namespace {

TEST(BuckConverter, ModelInventoryConsistent) {
  const BuckConverter bc = make_buck_converter();
  EXPECT_EQ(bc.models.size(), 7u);
  EXPECT_EQ(bc.inductor_model.size(), 7u);
  EXPECT_EQ(bc.board.components().size(), 7u);
  // Every mapped inductor exists in the circuit and every model has a board
  // component of the same name.
  for (const auto& [lname, mi] : bc.inductor_model) {
    EXPECT_NO_THROW(bc.circuit.inductor_index(lname));
    EXPECT_TRUE(bc.board.find_component(bc.models[mi].name).has_value());
  }
  EXPECT_NE(bc.model_for_inductor("L_CX1"), nullptr);
  EXPECT_EQ(bc.model_for_inductor("L_LISN"), nullptr);  // LISN is not placed
  EXPECT_NE(bc.model_for_component("LBUCK"), nullptr);
  EXPECT_EQ(bc.model_for_component("nope"), nullptr);
  EXPECT_EQ(bc.inductor_component_pairs().size(), 7u);
}

TEST(BuckConverter, ReferenceLayoutsAreGeometricallyLegal) {
  const BuckConverter bc = make_buck_converter();
  for (const place::Layout& l : {layout_unfavorable(bc), layout_optimized(bc)}) {
    const place::DrcReport r = place::DrcEngine(bc.board).check(l);
    // No geometric violations; EMD rules are not yet installed here.
    EXPECT_EQ(r.count(place::ViolationKind::kOverlap), 0u);
    EXPECT_EQ(r.count(place::ViolationKind::kClearance), 0u);
    EXPECT_EQ(r.count(place::ViolationKind::kOutsideArea), 0u);
    EXPECT_EQ(r.count(place::ViolationKind::kUnplaced), 0u);
    EXPECT_EQ(r.count(place::ViolationKind::kGroupSplit), 0u);
  }
}

TEST(BuckConverter, UnfavorableLayoutCouplesHarder) {
  const BuckConverter bc = make_buck_converter();
  const peec::CouplingExtractor ex;
  const auto k_of = [&](const place::Layout& l, const char* a, const char* b) {
    const peec::PlacedModel pa{bc.model_for_component(a), pose_of(bc, l, a)};
    const peec::PlacedModel pb{bc.model_for_component(b), pose_of(bc, l, b)};
    return std::fabs(ex.coupling_factor(pa, pb));
  };
  const place::Layout bad = layout_unfavorable(bc);
  const place::Layout good = layout_optimized(bc);
  // The critical X-cap pair: strong in the bad layout, below the rule
  // threshold (and several times weaker) in the optimized one.
  const double k_bad = k_of(bad, "CX1", "CX2");
  const double k_good = k_of(good, "CX1", "CX2");
  EXPECT_GT(k_bad, 0.02);
  EXPECT_LT(k_good, 0.01);
  EXPECT_GT(k_bad / k_good, 4.0);
}

TEST(BuckConverter, CircuitWithCouplingsInstallsK) {
  const BuckConverter bc = make_buck_converter();
  const peec::CouplingExtractor ex;
  const ckt::Circuit c = circuit_with_couplings(bc, layout_unfavorable(bc), ex, 1e-3);
  EXPECT_GT(c.couplings().size(), 0u);
  EXPECT_EQ(bc.circuit.couplings().size(), 0u);  // original untouched
  for (const auto& k : c.couplings()) EXPECT_LT(std::fabs(k.k), 1.0);
  // Restricting to one pair yields at most one coupling.
  const ckt::Circuit c1 = circuit_with_couplings(bc, layout_unfavorable(bc), ex, 1e-6,
                                                 {{"L_CX1", "L_CX2"}});
  EXPECT_LE(c1.couplings().size(), 1u);
  EXPECT_THROW(circuit_with_couplings(bc, layout_unfavorable(bc), ex, 1e-6,
                                      {{"L_LISN", "L_CX2"}}),
               std::invalid_argument);
}

TEST(BuckConverter, PoseOfUnplacedThrows) {
  const BuckConverter bc = make_buck_converter();
  const place::Layout empty = place::Layout::unplaced(bc.board);
  EXPECT_THROW(pose_of(bc, empty, "CX1"), std::invalid_argument);
}

TEST(DemoBoard, MatchesPaperScale) {
  const place::Design d = make_demo_board();
  const DemoBoardInfo info = demo_board_info(d);
  EXPECT_EQ(info.n_components, 29u);  // "29 devices"
  EXPECT_GE(info.n_emd_rules, 70u);   // "~100 minimum distances"
  EXPECT_LE(info.n_emd_rules, 120u);
  EXPECT_EQ(info.n_groups, 3u);       // "three functional groups"
  EXPECT_GE(info.n_nets, 10u);
}

TEST(DemoBoard, AutoPlacesCleanInSeconds) {
  const place::Design d = make_demo_board();
  place::Layout l = demo_board_initial_layout(d);
  const place::PlaceStats stats = place::auto_place(d, l);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_LT(stats.elapsed_seconds, 5.0);  // paper: "in seconds"
  EXPECT_TRUE(place::DrcEngine(d).check(l).clean());
}

TEST(DemoBoard, TwoBoardVariantPartitions) {
  const place::Design d = make_demo_board_two_boards();
  EXPECT_EQ(d.board_count(), 2);
  place::Layout l = demo_board_initial_layout(d);
  const place::PlaceStats stats = place::auto_place(d, l);
  EXPECT_EQ(stats.failed, 0u);
  // Control components live on board 1 as pinned.
  for (std::size_t i = 0; i < d.components().size(); ++i) {
    if (d.components()[i].group == "control") {
      EXPECT_EQ(l.placements[i].board, 1);
    }
  }
  EXPECT_TRUE(place::DrcEngine(d).check(l).clean());
}

// The headline end-to-end reproduction, as a regression test. Keep the
// sweep small for test runtime; the bench uses the full resolution.
TEST(DesignFlow, ReproducesThePaperShape) {
  BuckConverter bc = make_buck_converter();
  FlowOptions opt;
  opt.sweep.n_points = 60;
  const FlowResult res = run_design_flow(bc, layout_unfavorable(bc), opt);

  // Sensitivity pruning saved field solves.
  EXPECT_GT(res.field_solves_saved, 0u);
  EXPECT_FALSE(res.simulated_pairs.empty());
  EXPECT_FALSE(res.rules.empty());

  // Fig 15: the original layout violates derived EMD rules.
  EXPECT_GT(res.drc_initial.count(place::ViolationKind::kEmd), 0u);
  // Fig 16/17: the auto-placed layout is clean.
  EXPECT_TRUE(res.drc_improved.clean());
  EXPECT_EQ(res.place_stats.failed, 0u);
  EXPECT_LT(res.place_stats.elapsed_seconds, 5.0);

  // Fig 2: emissions drop substantially (paper: up to ~20 dB).
  EXPECT_GT(res.peak_improvement_db, 10.0);

  // Fig 12/13/14: with-coupling prediction correlates with the synthetic
  // measurement far better than the no-coupling one.
  const emc::EmissionSpectrum meas = emc::pseudo_measure(res.initial_prediction);
  const double r_with = num::pearson(res.initial_prediction.level_dbuv, meas.level_dbuv);
  const double r_without =
      num::pearson(res.initial_no_coupling.level_dbuv, meas.level_dbuv);
  EXPECT_GT(r_with, 0.95);
  EXPECT_LT(r_without, 0.8);
  const double err_without =
      num::mean_abs_error(res.initial_no_coupling.level_dbuv, meas.level_dbuv);
  EXPECT_GT(err_without, 10.0);  // tens of dB off, as in Fig 12 vs 13
}

TEST(DesignFlow, SurfacesKernelCountersInProfile) {
  BuckConverter bc = make_buck_converter();
  FlowOptions opt;
  opt.sweep.n_points = 30;
  const FlowResult res = run_design_flow(bc, layout_unfavorable(bc), opt);
  // The extraction work of this run, as deltas of the process-wide kernel
  // counters. The flow extracts with the exact kernel only.
  EXPECT_GT(res.profile.count("peec.kernel_sample_evals"), 0u);
  EXPECT_GT(res.profile.count("peec.kernel_exact_pairs"), 0u);
  // Its cluster counters must read zero (the bit-identity guard for exact
  // extraction).
  EXPECT_EQ(res.profile.count("peec.kernel_cluster_pairs"), 0u);
  EXPECT_EQ(res.profile.count("peec.kernel_cluster_skipped"), 0u);
}

}  // namespace
}  // namespace emi::flow
