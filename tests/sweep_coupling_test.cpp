// Reduced-order coupling model: the rank-2 Sherman-Morrison probe phasor
// against a from-scratch probed solve, the per-pair model sweep (exact at
// model points, complex cubic fill elsewhere, held-out gate), escalation,
// and determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "src/ckt/ac.hpp"
#include "src/ckt/circuit.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/numeric/stats.hpp"
#include "src/sweep/coupling.hpp"

namespace emi::sweep {
namespace {

// Two-stage input filter: four inductors (two chokes, two capacitor ESLs),
// so six candidate pairs with genuinely different branch interactions.
ckt::Circuit testbed(std::string* meas, std::vector<std::string>* names) {
  ckt::Circuit c;
  c.add_vsource("VN", "in", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_resistor("RS", "in", "n1", 2.0);
  c.add_inductor("LF1", "n1", "n2", 4.7e-6);
  c.add_capacitor("CX1", "n2", "x1", 220e-9);
  c.add_inductor("LX1", "x1", "e1", 15e-9);
  c.add_resistor("RX1", "e1", "0", 0.5);
  c.add_inductor("LF2", "n2", "n3", 2.2e-6);
  c.add_capacitor("CX2", "n3", "x2", 100e-9);
  c.add_inductor("LX2", "x2", "e2", 25e-9);
  c.add_resistor("RX2", "e2", "0", 0.8);
  c.add_resistor("RLOAD", "n3", "0", 50.0);
  *meas = "n3";
  *names = {"LF1", "LX1", "LF2", "LX2"};
  return c;
}

std::vector<double> probed_dense_levels(ckt::Circuit c, const std::string& meas,
                                        const std::string& a, const std::string& b,
                                        double k, const std::vector<double>& freqs,
                                        const std::vector<double>& env) {
  c.set_coupling(a, b, k);
  ckt::AcOptions ac;
  ac.source_scale = env;
  const ckt::AcSolution sol = ckt::ac_solve_checked(c, freqs, ac).value();
  std::vector<double> level(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    level[i] = num::volts_to_dbuv(std::abs(sol.voltage(meas, i)));
  }
  return level;
}

// The rank-2 probe phasor of every candidate pair against a from-scratch
// solve of the probed circuit.
void expect_probe_matches_full_solve(const ckt::Circuit& c, const std::string& meas,
                                     const std::vector<std::string>& names) {
  const std::vector<double> freqs = num::log_space(150e3, 108e6, 24);
  const std::vector<double> env(freqs.size(), 1.0);

  ckt::AcOptions ac;
  ac.source_scale = env;
  const ckt::CouplingProbeModel model =
      ckt::ac_coupling_probe_model(c, meas, names, freqs, ac);
  ASSERT_EQ(model.freqs_hz.size(), freqs.size());

  const auto lmat = c.inductance_matrix();
  const double probe_k = 0.05;
  for (std::size_t p = 0; p < names.size(); ++p) {
    for (std::size_t q = p + 1; q < names.size(); ++q) {
      const std::size_t cp = c.inductor_index(names[p]);
      const std::size_t cq = c.inductor_index(names[q]);
      const double dm =
          probe_k * std::sqrt(lmat[cp][cp] * lmat[cq][cq]) - lmat[cp][cq];
      ckt::Circuit probe = c;
      probe.set_coupling(names[p], names[q], probe_k);
      const ckt::AcSolution ref = ckt::ac_solve_checked(probe, freqs, ac).value();
      for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
        const ckt::Complex want = ref.voltage(meas, fi);
        const ckt::Complex got = coupling_probe_phasor(model, fi, p, q, dm);
        EXPECT_NEAR(got.real(), want.real(), 1e-9 * std::abs(want) + 1e-18)
            << names[p] << "/" << names[q] << " fi=" << fi;
        EXPECT_NEAR(got.imag(), want.imag(), 1e-9 * std::abs(want) + 1e-18)
            << names[p] << "/" << names[q] << " fi=" << fi;
      }
    }
  }
}

TEST(CouplingProbeModel, ShermanMorrisonMatchesFullProbedSolve) {
  std::string meas;
  std::vector<std::string> names;
  const ckt::Circuit c = testbed(&meas, &names);
  expect_probe_matches_full_solve(c, meas, names);
}

// The same on a 16-stage filter ladder, which both AC entry points factor
// in band storage; the model's baseline is the sweep's solution bit for bit.
TEST(CouplingProbeModel, ShermanMorrisonMatchesOnTheBandedLadder) {
  flow::LargeScenarioOptions o;
  o.n_stages = 16;
  const flow::LargeScenarioCircuit sc = flow::make_large_scenario_circuit(o);
  ASSERT_NE(ckt::ac_band_ordering(sc.circuit), nullptr);
  const std::vector<std::string> names = {"LF0", "L_CX0", "LF7", "L_CX15"};
  expect_probe_matches_full_solve(sc.circuit, sc.meas_node, names);

  const std::vector<double> freqs = num::log_space(150e3, 108e6, 12);
  const ckt::CouplingProbeModel model =
      ckt::ac_coupling_probe_model(sc.circuit, sc.meas_node, names, freqs);
  const ckt::AcSolution sweep = ckt::ac_solve_checked(sc.circuit, freqs).value();
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    EXPECT_EQ(model.v_meas[fi], sweep.voltage(sc.meas_node, fi)) << "fi=" << fi;
    for (std::size_t p = 0; p < names.size(); ++p) {
      EXPECT_EQ(model.i_branch[fi][p], sweep.inductor_current(names[p], fi));
    }
  }
}

TEST(CouplingProbeModel, ZeroDeltaReturnsBaselineVerbatim) {
  std::string meas;
  std::vector<std::string> names;
  const ckt::Circuit c = testbed(&meas, &names);
  const std::vector<double> freqs = num::log_space(150e3, 108e6, 8);
  ckt::AcOptions ac;
  ac.source_scale = std::vector<double>(freqs.size(), 1.0);
  const ckt::CouplingProbeModel model =
      ckt::ac_coupling_probe_model(c, meas, names, freqs, ac);
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    EXPECT_EQ(coupling_probe_phasor(model, fi, 0, 1, 0.0), model.v_meas[fi]);
  }
}

TEST(CouplingProbeModel, RejectsBadInputs) {
  std::string meas;
  std::vector<std::string> names;
  const ckt::Circuit c = testbed(&meas, &names);
  const std::vector<double> freqs{1e6, 2e6};
  EXPECT_THROW(ckt::ac_coupling_probe_model(c, "nope", names, freqs, {}),
               std::invalid_argument);
  EXPECT_THROW(ckt::ac_coupling_probe_model(c, meas, {"LF1", "LGHOST"}, freqs, {}),
               std::invalid_argument);
  ckt::AcOptions bad;
  bad.source_scale = {1.0};  // wrong length for a 2-point grid
  EXPECT_THROW(ckt::ac_coupling_probe_model(c, meas, names, freqs, bad),
               std::invalid_argument);
}

TEST(CouplingModelSweep, ExactAtModelPointsFillWithinGate) {
  std::string meas;
  std::vector<std::string> names;
  const ckt::Circuit c = testbed(&meas, &names);
  const std::size_t n = 240;
  const std::vector<double> freqs = num::log_space(150e3, 108e6, n);
  const std::vector<double> env(freqs.size(), 1.0);

  // Model grid: every 2nd dense index plus the last - a stand-in for the
  // refined grid the sensitivity ranking would pass (refinement clusters
  // points near structure; an even stride needs to be denser to match).
  std::vector<std::size_t> solved_idx;
  for (std::size_t i = 0; i < n; i += 2) solved_idx.push_back(i);
  if (solved_idx.back() != n - 1) solved_idx.push_back(n - 1);
  std::vector<double> model_f(solved_idx.size()), model_env(solved_idx.size());
  for (std::size_t k = 0; k < solved_idx.size(); ++k) {
    model_f[k] = freqs[solved_idx[k]];
    model_env[k] = env[solved_idx[k]];
  }
  ckt::AcOptions mac;
  mac.source_scale = model_env;
  const ckt::CouplingProbeModel model =
      ckt::ac_coupling_probe_model(c, meas, names, model_f, mac);

  const auto lmat = c.inductance_matrix();
  const double probe_k = 0.05;
  const std::size_t p = 0, q = 2;  // LF1 / LF2
  const std::size_t cp = c.inductor_index(names[p]);
  const std::size_t cq = c.inductor_index(names[q]);
  const double dm = probe_k * std::sqrt(lmat[cp][cp] * lmat[cq][cq]) - lmat[cp][cq];

  SweepStats stats;
  bool escalated = false;
  const std::vector<double> level = coupling_model_pair_sweep(
      model, solved_idx, freqs, env, dm, p, q, 0, &stats, [&]() {
        escalated = true;
        return std::vector<double>(n, 0.0);
      });
  ASSERT_FALSE(escalated);
  ASSERT_EQ(level.size(), n);
  EXPECT_EQ(stats.escalations, 0u);
  EXPECT_EQ(stats.surrogate_evals, n - solved_idx.size());
  EXPECT_LE(stats.max_residual_db, gate_db(0));

  const std::vector<double> ref =
      probed_dense_levels(c, meas, names[p], names[q], probe_k, freqs, env);
  for (std::size_t k = 0; k < solved_idx.size(); ++k) {
    EXPECT_NEAR(level[solved_idx[k]], ref[solved_idx[k]], 1e-6) << solved_idx[k];
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(level[i] - ref[i]), 1.0) << i;
  }

  // Pure function of the model: a second evaluation is bitwise identical.
  SweepStats stats2;
  const std::vector<double> again = coupling_model_pair_sweep(
      model, solved_idx, freqs, env, dm, p, q, 0, &stats2,
      [&]() { return std::vector<double>(n, 0.0); });
  EXPECT_EQ(level, again);
}

// A pair escalates exactly when its held-out residual exceeds the gate of
// its degrade level: the same pair on the same model escalates at level 0
// and is filled from the model once the doubled gate covers its residual.
TEST(CouplingModelSweep, ResidualPastTheLadderGateEscalates) {
  std::string meas;
  std::vector<std::string> names;
  const ckt::Circuit c = testbed(&meas, &names);
  const std::size_t n = 64;
  const std::vector<double> freqs = num::log_space(150e3, 108e6, n);
  const std::vector<double> env(freqs.size(), 1.0);
  std::vector<std::size_t> solved_idx;
  for (std::size_t i = 0; i < n; i += 4) solved_idx.push_back(i);
  if (solved_idx.back() != n - 1) solved_idx.push_back(n - 1);
  std::vector<double> model_f(solved_idx.size()), model_env(solved_idx.size());
  for (std::size_t k = 0; k < solved_idx.size(); ++k) {
    model_f[k] = freqs[solved_idx[k]];
    model_env[k] = env[solved_idx[k]];
  }
  ckt::AcOptions mac;
  mac.source_scale = model_env;
  const ckt::CouplingProbeModel model =
      ckt::ac_coupling_probe_model(c, meas, names, model_f, mac);

  const std::vector<double> sentinel(n, -123.0);
  const auto sweep_at = [&](int degrade, SweepStats* stats) {
    return coupling_model_pair_sweep(model, solved_idx, freqs, env, 1e-8, 0, 2, degrade,
                                     stats, [&]() { return sentinel; });
  };
  SweepStats at0;
  EXPECT_EQ(sweep_at(0, &at0), sentinel);
  const double residual = at0.max_residual_db;
  ASSERT_GT(residual, gate_db(0));
  EXPECT_EQ(at0.escalations, 1u);
  EXPECT_EQ(at0.surrogate_evals, 0u);

  int level = 1;
  while (level < 16 && gate_db(level) < residual) ++level;
  ASSERT_LE(residual, gate_db(level));
  SweepStats below;
  EXPECT_EQ(sweep_at(level - 1, &below), sentinel);
  EXPECT_EQ(below.escalations, 1u);
  SweepStats at;
  EXPECT_NE(sweep_at(level, &at), sentinel);
  EXPECT_EQ(at.escalations, 0u);
  EXPECT_EQ(at.surrogate_evals, n - solved_idx.size());
  EXPECT_EQ(at.max_residual_db, residual);
}

TEST(CouplingModelSweep, RejectsMismatchedGrids) {
  std::string meas;
  std::vector<std::string> names;
  const ckt::Circuit c = testbed(&meas, &names);
  const std::vector<double> freqs = num::log_space(1e6, 1e7, 16);
  const std::vector<double> env(freqs.size(), 1.0);
  ckt::AcOptions mac;
  mac.source_scale = {1.0, 1.0};
  const ckt::CouplingProbeModel model =
      ckt::ac_coupling_probe_model(c, meas, names, {freqs[0], freqs[15]}, mac);
  SweepStats stats;
  const auto dense = []() { return std::vector<double>(16, 0.0); };
  // Model grid that does not span the dense grid's ends.
  EXPECT_THROW(coupling_model_pair_sweep(model, {0, 7}, freqs, env, 1e-9, 0, 1, 0,
                                         &stats, dense),
               std::invalid_argument);
  EXPECT_THROW(coupling_model_pair_sweep(model, {0}, freqs, env, 1e-9, 0, 1, 0,
                                         &stats, dense),
               std::invalid_argument);
}

}  // namespace
}  // namespace emi::sweep
