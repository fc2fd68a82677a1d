// Sweep acceleration through the design flow: defaults stay bit-identical,
// the `sweep.*` profile counters other than full_solves are zero until
// opted in, the checkpoint digest changes exactly when the sweep switch
// changes, `adaptive` alone is the shipped `--adaptive` flow,
// resume-mid-sweep is bit-identical, the result is thread-count invariant,
// and the headline acceptance holds on both golden workloads: >= 10x fewer
// full AC solves at <= 1 dB max deviation (buck converter and the large
// scenario ladder).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/thread_pool.hpp"
#include "src/emi/emission.hpp"
#include "src/emi/sensitivity.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/checkpoint.hpp"
#include "src/flow/design_flow.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/io/design_format.hpp"
#include "src/numeric/stats.hpp"

namespace emi::flow {
namespace {

FlowOptions accel_options(std::size_t n_points) {
  FlowOptions opt;
  opt.sweep.n_points = n_points;
  opt.sweep_accel.adaptive = true;
  return opt;
}

std::string temp_ckpt(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// Everything result-bearing in a FlowResult, flattened for equality checks
// (same shape as the checkpoint battery's witness).
std::string fingerprint(const BuckConverter& bc, const FlowResult& r) {
  std::ostringstream o;
  o.precision(17);
  o << "complete=" << r.complete << " peak=" << r.peak_improvement_db << "\n";
  for (double v : r.initial_prediction.level_dbuv) o << v << ",";
  o << "\n";
  for (double v : r.improved_prediction.level_dbuv) o << v << ",";
  o << "\n";
  for (const auto& p : r.simulated_pairs) o << p.first << "+" << p.second << " ";
  o << "\n";
  for (const auto& rule : r.rules) {
    o << rule.comp_a << "|" << rule.comp_b << "|" << rule.pemd.raw() << "\n";
  }
  if (!r.improved_layout.placements.empty()) {
    io::save_layout(o, bc.board, r.improved_layout);
  }
  return o.str();
}

double max_abs_delta(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// The exact-by-default guard: a run that never opted in solves every point
// of its 25 sweeps (baseline + 21 candidate pairs, 2 initial predictions,
// 1 verification) and surfaces every other sweep economics counter as zero
// (no interpolated point anywhere).
TEST(SweepFlow, DefaultRunKeepsSweepCountersZero) {
  BuckConverter bc = make_buck_converter();
  FlowOptions opt;
  opt.sweep.n_points = 30;
  const FlowResult res = run_design_flow(bc, layout_unfavorable(bc), opt);
  ASSERT_TRUE(res.complete);
  EXPECT_EQ(res.profile.count("sweep.full_solves"), 750u);
  EXPECT_EQ(res.profile.count("sweep.interp_points"), 0u);
  EXPECT_EQ(res.profile.count("sweep.surrogate_evals"), 0u);
  EXPECT_EQ(res.profile.count("sweep.escalations"), 0u);
  EXPECT_EQ(res.profile.gauge("sweep.max_residual_db"), 0.0);
}

// Without `adaptive` the sweeps are dense and exact: `surrogate` alone,
// read nowhere, must not move a single result bit, and the checkpoint
// context digest must stay exactly the digest of a build that never had the
// field.
TEST(SweepFlow, DisabledAccelIsBitIdenticalAndKeepsTheDigest) {
  BuckConverter bc1 = make_buck_converter();
  FlowOptions base;
  base.sweep.n_points = 30;
  const FlowResult ref = run_design_flow(bc1, layout_unfavorable(bc1), base);

  BuckConverter bc2 = make_buck_converter();
  FlowOptions with_field = base;
  with_field.sweep_accel.surrogate = true;
  const FlowResult res = run_design_flow(bc2, layout_unfavorable(bc2), with_field);
  EXPECT_TRUE(res.diagnostics.empty());
  EXPECT_EQ(res.profile.count("sweep.full_solves"), ref.profile.count("sweep.full_solves"));
  EXPECT_EQ(fingerprint(bc1, ref), fingerprint(bc2, res));
  BuckConverter bcd = make_buck_converter();
  EXPECT_EQ(flow_context_digest(bcd, layout_unfavorable(bcd), base),
            flow_context_digest(bcd, layout_unfavorable(bcd), with_field));
}

// Only the switch reaches the digest: the tolerances are constants of the
// degrade ladder, and `surrogate` is read nowhere.
TEST(SweepFlow, DigestChangesIffSweepOptionsChange) {
  BuckConverter bc = make_buck_converter();
  const place::Layout layout = layout_unfavorable(bc);
  FlowOptions base;
  base.sweep.n_points = 30;
  const std::uint64_t d0 = flow_context_digest(bc, layout, base);

  FlowOptions adaptive = base;
  adaptive.sweep_accel.adaptive = true;
  const std::uint64_t d1 = flow_context_digest(bc, layout, adaptive);
  EXPECT_NE(d0, d1);
  EXPECT_EQ(d1, flow_context_digest(bc, layout, adaptive));  // stable

  FlowOptions both = adaptive;
  both.sweep_accel.surrogate = true;
  EXPECT_EQ(d1, flow_context_digest(bc, layout, both));
  FlowOptions surrogate_alone = base;
  surrogate_alone.sweep_accel.surrogate = true;
  EXPECT_EQ(d0, flow_context_digest(bc, layout, surrogate_alone));
}

// `adaptive` alone selects everything the shipped `--adaptive` configuration
// (adaptive and surrogate together, as emibench still sets it) runs: the
// same result, work counters and checkpoint digest, on both topologies.
TEST(SweepFlow, AdaptiveAloneIsTheShippedAdaptiveFlow) {
  for (const bool boost : {false, true}) {
    const auto run = [&](bool surrogate, std::uint64_t* digest) {
      BuckConverter bc = boost ? make_boost_converter() : make_buck_converter();
      const place::Layout initial =
          boost ? boost_layout_unfavorable(bc) : layout_unfavorable(bc);
      FlowOptions opt = accel_options(60);
      opt.sweep_accel.surrogate = surrogate;
      *digest = flow_context_digest(bc, initial, opt);
      return run_design_flow(bc, initial, opt);
    };
    std::uint64_t shipped_digest = 0, alone_digest = 0;
    const FlowResult shipped = run(true, &shipped_digest);
    const FlowResult alone = run(false, &alone_digest);
    const char* topology = boost ? "boost" : "buck";
    ASSERT_TRUE(shipped.complete) << topology;
    EXPECT_EQ(alone_digest, shipped_digest) << topology;
    EXPECT_EQ(result_fingerprint(alone), result_fingerprint(shipped)) << topology;
    // Every work counter; pool activity depends on scheduling, not inputs.
    const auto counters = [](const FlowResult& r) {
      std::map<std::string, std::uint64_t> out;
      for (const auto& e : r.profile.entries()) {
        if (e.name.rfind("pool.", 0) != 0) out[e.name] = e.count;
      }
      return out;
    };
    const std::map<std::string, std::uint64_t> want = counters(shipped);
    EXPECT_EQ(counters(alone), want) << topology;
    EXPECT_GT(want.at("sweep.interp_points"), 0u) << topology;
  }
}

// Both branches reject a probe set_coupling rejects before any point is
// solved: a candidate listed twice (a self pair) and |probe_k| >= 1. The
// adaptive branch's coupling model never calls set_coupling itself.
TEST(SweepFlow, AdaptiveRankingRejectsInvalidProbes) {
  const BuckConverter bc = make_buck_converter();
  const std::string l0 = bc.circuit.inductors()[0].name;
  const std::string l1 = bc.circuit.inductors()[1].name;
  for (const bool adaptive : {false, true}) {
    emc::SensitivityOptions opt;
    opt.sweep.n_points = 60;
    opt.accel.adaptive = adaptive;
    opt.candidates = {l0, l1, l0};
    EXPECT_THROW(emc::rank_coupling_sensitivity_report(bc.circuit, bc.meas_node, bc.noise,
                                                       opt),
                 std::invalid_argument)
        << "adaptive " << adaptive;
    opt.candidates = {l0, l1};
    opt.probe_k = 1.5;
    EXPECT_THROW(emc::rank_coupling_sensitivity_report(bc.circuit, bc.meas_node, bc.noise,
                                                       opt),
                 std::invalid_argument)
        << "adaptive " << adaptive;
  }
}

// The headline acceptance on the buck golden: the accelerated flow performs
// >= 10x fewer full AC solves than the dense-equivalent workload while every
// predicted level stays within 1 dB of the exact run's.
TEST(SweepFlow, BuckGoldenTenXFewerSolvesWithinOneDb) {
  const std::size_t n_points = 400;
  BuckConverter ref_bc = make_buck_converter();
  FlowOptions ref_opt;
  ref_opt.sweep.n_points = n_points;
  const FlowResult ref = run_design_flow(ref_bc, layout_unfavorable(ref_bc), ref_opt);
  ASSERT_TRUE(ref.complete);

  BuckConverter bc = make_buck_converter();
  const FlowResult res = run_design_flow(bc, layout_unfavorable(bc),
                                         accel_options(n_points));
  ASSERT_TRUE(res.complete);

  // Dense-equivalent full solves: one baseline + one per ranked pair in the
  // sensitivity stage, coupled + uncoupled initial predictions, and the
  // verification sweep - each over the full dense grid.
  ASSERT_EQ(res.ranking.size(), ref.ranking.size());
  const std::uint64_t dense_equiv =
      static_cast<std::uint64_t>(res.ranking.size() + 4) * n_points;
  const std::uint64_t full = res.profile.count("sweep.full_solves");
  ASSERT_GT(full, 0u);
  EXPECT_GE(dense_equiv, 10 * full)
      << "dense-equivalent " << dense_equiv << " vs full solves " << full;
  EXPECT_GT(res.profile.count("sweep.surrogate_evals"), 0u);
  EXPECT_GT(res.profile.count("sweep.interp_points"), 0u);

  // Accuracy: the accelerated predictions track the exact ones within 1 dB,
  // and the acceleration did not change which pairs were field-simulated.
  EXPECT_EQ(res.simulated_pairs, ref.simulated_pairs);
  EXPECT_LE(max_abs_delta(res.initial_prediction.level_dbuv,
                          ref.initial_prediction.level_dbuv),
            1.0);
  EXPECT_LE(max_abs_delta(res.improved_prediction.level_dbuv,
                          ref.improved_prediction.level_dbuv),
            1.0);
  EXPECT_NEAR(res.peak_improvement_db, ref.peak_improvement_db, 1.0);
}

// Same acceptance on the large scenario's electrical twin: the n-stage
// filter ladder with two rankable inductors per stage.
TEST(SweepFlow, ScenarioLargeTenXFewerSolvesWithinOneDb) {
  LargeScenarioOptions sopt;
  sopt.n_stages = 4;
  const LargeScenarioCircuit sc = make_large_scenario_circuit(sopt);
  ASSERT_EQ(sc.inductors.size(), 8u);

  const std::size_t n_points = 300;
  emc::SensitivityOptions dense_opt;
  dense_opt.sweep.n_points = n_points;
  const emc::SensitivityReport dense = emc::rank_coupling_sensitivity_report(
      sc.circuit, sc.meas_node, sc.source, dense_opt);

  emc::SensitivityOptions accel_opt = dense_opt;
  accel_opt.accel.adaptive = true;
  const emc::SensitivityReport accel = emc::rank_coupling_sensitivity_report(
      sc.circuit, sc.meas_node, sc.source, accel_opt);

  ASSERT_EQ(dense.ranking.size(), 28u);  // 8 choose 2
  ASSERT_EQ(accel.ranking.size(), 28u);
  EXPECT_EQ(dense.stats.full_solves,
            static_cast<std::uint64_t>(dense.ranking.size() + 1) * n_points);
  ASSERT_GT(accel.stats.full_solves, 0u);
  EXPECT_GE(dense.stats.full_solves, 10 * accel.stats.full_solves)
      << "dense " << dense.stats.full_solves << " vs accelerated "
      << accel.stats.full_solves;

  // Every pair's ranked impact within 1 dB of the exact run's.
  std::map<std::pair<std::string, std::string>, double> exact;
  for (const auto& p : dense.ranking) {
    exact[{p.inductor_a, p.inductor_b}] = p.max_delta_db;
  }
  for (const auto& p : accel.ranking) {
    const auto it = exact.find({p.inductor_a, p.inductor_b});
    ASSERT_NE(it, exact.end()) << p.inductor_a << "+" << p.inductor_b;
    EXPECT_NEAR(p.max_delta_db, it->second, 1.0)
        << p.inductor_a << "+" << p.inductor_b;
  }

  // And the adaptive emission spectrum itself: within 1 dB of dense.
  emc::EmissionSweepOptions eopt;
  eopt.n_points = n_points;
  const emc::EmissionSpectrum exact_spec =
      emc::conducted_emission(sc.circuit, sc.meas_node, sc.source, eopt);
  const emc::AdaptiveEmissionResult adapt = emc::conducted_emission_adaptive(
      sc.circuit, sc.meas_node, sc.source, eopt, accel_opt.accel);
  EXPECT_LE(max_abs_delta(adapt.spectrum.level_dbuv, exact_spec.level_dbuv), 1.0);
  // A single sweep of this deliberately structure-rich ladder refines a big
  // slice of the grid (the admission rule spends solves wherever the
  // response has structure), so the 10x economics are a property of the
  // ranking above, where one refinement pass amortizes across all 28 pairs.
  // The lone sweep still has to come in under dense with interpolated fill.
  EXPECT_LT(adapt.stats.full_solves, n_points);
  EXPECT_GT(adapt.stats.interp_points, 0u);
}

TEST(SweepFlow, AcceleratedFlowIsThreadCountInvariant) {
  core::ThreadPool::set_global_thread_count(1);
  BuckConverter ref_bc = make_buck_converter();
  const FlowResult ref =
      run_design_flow(ref_bc, layout_unfavorable(ref_bc), accel_options(60));
  const std::string want = fingerprint(ref_bc, ref);
  const std::uint64_t want_solves = ref.profile.count("sweep.full_solves");

  for (std::size_t lanes : {2u, 4u, 8u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    BuckConverter bc = make_buck_converter();
    const FlowResult res =
        run_design_flow(bc, layout_unfavorable(bc), accel_options(60));
    EXPECT_EQ(want, fingerprint(bc, res)) << lanes << " lanes";
    EXPECT_EQ(want_solves, res.profile.count("sweep.full_solves"))
        << lanes << " lanes";
  }
  core::ThreadPool::set_global_thread_count(core::ThreadPool::default_thread_count());
}

// Kill the accelerated flow after each sweep-bearing stage and resume: the
// resumed result must be bit-identical to the uninterrupted accelerated run
// (the PR 4 checkpoint machinery, now carrying the sweep context).
TEST(SweepFlow, ResumeMidSweepIsBitIdentical) {
  BuckConverter ref_bc = make_buck_converter();
  const FlowResult ref =
      run_design_flow(ref_bc, layout_unfavorable(ref_bc), accel_options(60));
  ASSERT_TRUE(ref.complete);
  const std::string want = fingerprint(ref_bc, ref);

  for (const char* stage : {"sensitivity", "initial_prediction", "verification"}) {
    const std::string ckpt = temp_ckpt("sweep_resume.ckpt");
    std::remove(ckpt.c_str());
    FlowOptions opt = accel_options(60);
    opt.checkpoint_path = ckpt;
    opt.stop_after_stage = stage;
    BuckConverter bc1 = make_buck_converter();
    run_design_flow(bc1, layout_unfavorable(bc1), opt);

    FlowOptions resume_opt = accel_options(60);
    resume_opt.checkpoint_path = ckpt;
    BuckConverter bc2 = make_buck_converter();
    const FlowResult resumed =
        resume_design_flow(bc2, layout_unfavorable(bc2), resume_opt);
    EXPECT_TRUE(resumed.complete) << "resume after " << stage;
    EXPECT_EQ(want, fingerprint(bc2, resumed)) << "resume after " << stage;
    std::remove(ckpt.c_str());
  }
}

// A checkpoint written under acceleration must not resume into an exact run
// (or vice versa): the digest ties the checkpoint to the sweep options.
TEST(SweepFlow, ResumeWithDifferentSweepAccelIsRefused) {
  const std::string ckpt = temp_ckpt("sweep_digest.ckpt");
  std::remove(ckpt.c_str());
  FlowOptions opt = accel_options(30);
  opt.checkpoint_path = ckpt;
  opt.stop_after_stage = "sensitivity";
  BuckConverter bc1 = make_buck_converter();
  run_design_flow(bc1, layout_unfavorable(bc1), opt);

  FlowOptions exact;
  exact.sweep.n_points = 30;
  exact.checkpoint_path = ckpt;
  BuckConverter bc2 = make_buck_converter();
  const FlowResult res = resume_design_flow(bc2, layout_unfavorable(bc2), exact);
  EXPECT_FALSE(res.complete);
  ASSERT_EQ(res.diagnostics.size(), 1u);
  EXPECT_EQ(res.diagnostics[0].stage, "flow.checkpoint");
  EXPECT_EQ(res.diagnostics[0].status.code(), core::ErrorCode::kFailedPrecondition);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace emi::flow
