#include "src/ckt/ac.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "src/core/fault_injection.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/numeric/stats.hpp"

namespace emi::ckt {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

TEST(AcSolve, ResistiveDivider) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "out", 1000.0);
  c.add_resistor("R2", "out", "0", 1000.0);
  const AcSolution sol = ac_solve(c, {1e3, 1e6});
  for (std::size_t fi = 0; fi < 2; ++fi) {
    EXPECT_NEAR(std::abs(sol.voltage("out", fi)), 0.5, 1e-9);
    EXPECT_NEAR(std::abs(sol.voltage("in", fi)), 1.0, 1e-9);
  }
}

TEST(AcSolve, RcLowPassCornerFrequency) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "out", 1000.0);
  c.add_capacitor("C1", "out", "0", 1e-6);
  const double fc = 1.0 / (kTwoPi * 1000.0 * 1e-6);
  const AcSolution sol = ac_solve(c, {fc, 10.0 * fc});
  // At the corner |H| = 1/sqrt(2); a decade above ~ -20 dB.
  EXPECT_NEAR(std::abs(sol.voltage("out", 0)), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(std::abs(sol.voltage("out", 1)), 1.0 / std::sqrt(101.0), 1e-6);
  // Phase at the corner is -45 degrees.
  EXPECT_NEAR(std::arg(sol.voltage("out", 0)) * 180.0 / std::numbers::pi, -45.0, 0.01);
}

TEST(AcSolve, RlHighPass) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "out", 100.0);
  c.add_inductor("L1", "out", "0", 1e-3);
  const double fc = 100.0 / (kTwoPi * 1e-3);  // R/(2 pi L)
  const AcSolution sol = ac_solve(c, {fc});
  EXPECT_NEAR(std::abs(sol.voltage("out", 0)), 1.0 / std::sqrt(2.0), 1e-6);
  // Inductor branch current = V_L / (j w L).
  const Complex il = sol.inductor_current("L1", 0);
  EXPECT_NEAR(std::abs(il), std::abs(sol.voltage("out", 0)) / (kTwoPi * fc * 1e-3),
              1e-9);
}

TEST(AcSolve, SeriesRlcResonance) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "a", 10.0);
  c.add_inductor("L1", "a", "b", 1e-3);
  c.add_capacitor("C1", "b", "0", 1e-9);
  const double f0 = 1.0 / (kTwoPi * std::sqrt(1e-3 * 1e-9));
  const AcSolution sol = ac_solve(c, {f0});
  // At resonance L and C cancel: the full source current flows, I = V/R.
  EXPECT_NEAR(std::abs(sol.inductor_current("L1", 0)), 0.1, 1e-4);
}

// Ideal transformer check: two coupled inductors with k -> voltage ratio
// approaches sqrt(L2/L1) * k on an open secondary.
TEST(AcSolve, CoupledInductorsOpenSecondary) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("Rs", "in", "p", 1.0);
  c.add_inductor("L1", "p", "0", 1e-3);
  c.add_inductor("L2", "s", "0", 4e-3);
  c.add_coupling("K12", "L1", "L2", 0.9);
  // Secondary loaded lightly to define the node.
  c.add_resistor("Rl", "s", "0", 1e9);
  const AcSolution sol = ac_solve(c, {100e3});
  const double ratio = std::abs(sol.voltage("s", 0)) / std::abs(sol.voltage("p", 0));
  EXPECT_NEAR(ratio, 0.9 * std::sqrt(4.0), 0.01);
}

TEST(AcSolve, CouplingSignMatters) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("Rs", "in", "p", 1.0);
  c.add_inductor("L1", "p", "0", 1e-3);
  c.add_inductor("L2", "s", "0", 1e-3);
  c.add_resistor("Rl", "s", "0", 1e9);
  c.add_coupling("K12", "L1", "L2", 0.5);
  const AcSolution pos = ac_solve(c, {100e3});

  Circuit c2;
  c2.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c2.add_resistor("Rs", "in", "p", 1.0);
  c2.add_inductor("L1", "p", "0", 1e-3);
  c2.add_inductor("L2", "s", "0", 1e-3);
  c2.add_resistor("Rl", "s", "0", 1e9);
  c2.add_coupling("K12", "L1", "L2", -0.5);
  const AcSolution neg = ac_solve(c2, {100e3});

  const Complex vp = pos.voltage("s", 0);
  const Complex vn = neg.voltage("s", 0);
  EXPECT_NEAR(std::abs(vp + vn), 0.0, 1e-9);  // opposite phase
  EXPECT_NEAR(std::abs(vp), std::abs(vn), 1e-12);
}

TEST(AcSolve, SourceScaleShapesOutput) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "out", 1.0);
  c.add_resistor("R2", "out", "0", 1.0);
  AcOptions opt;
  opt.source_scale = {2.0, 0.5};
  const AcSolution sol = ac_solve(c, {1e3, 1e4}, opt);
  EXPECT_NEAR(std::abs(sol.voltage("out", 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::abs(sol.voltage("out", 1)), 0.25, 1e-9);
  opt.source_scale = {1.0};
  EXPECT_THROW(ac_solve(c, {1e3, 1e4}, opt), std::invalid_argument);
}

TEST(AcSolve, CurrentSource) {
  Circuit c;
  c.add_isource("I1", "0", "out", Waveform::dc(0.0), 1e-3);
  c.add_resistor("R1", "out", "0", 1000.0);
  const AcSolution sol = ac_solve(c, {1e3});
  EXPECT_NEAR(std::abs(sol.voltage("out", 0)), 1.0, 1e-9);
}

TEST(AcSolve, SwitchFrozenState) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_switch("S1", "in", "out", Waveform::dc(1.0), 1.0, 1e9);
  c.add_resistor("R1", "out", "0", 1.0);
  const AcSolution on = ac_solve(c, {1e3});
  EXPECT_NEAR(std::abs(on.voltage("out", 0)), 0.5, 1e-6);
  // Freeze off: nearly nothing gets through.
  c.set_switch_ac_state("S1", false);
  const AcSolution off = ac_solve(c, {1e3});
  EXPECT_THROW(c.set_switch_ac_state("S9", true), std::invalid_argument);
  EXPECT_LT(std::abs(off.voltage("out", 0)), 1e-6);
}

TEST(AcSolve, Validation) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "0", 1.0);
  EXPECT_THROW(ac_solve(c, {0.0}), std::invalid_argument);
  EXPECT_THROW(ac_solve(c, {-5.0}), std::invalid_argument);
  const AcSolution sol = ac_solve(c, {1e3});
  EXPECT_THROW(sol.voltage("nope", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(std::abs(sol.voltage("0", 0)), 0.0);  // ground is 0
}

TEST(AcSolveChecked, CleanSweepHasNoFailures) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "out", 1000.0);
  c.add_resistor("R2", "out", "0", 1000.0);
  const CheckedAcSolution r = ac_solve_checked(c, {1e3, 1e6});
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.failures.empty());
  EXPECT_NEAR(std::abs(r.solution.voltage("out", 0)), 0.5, 1e-9);
}

TEST(AcSolveChecked, ConditionLimitFlagsPointsInIndexOrder) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "out", 1000.0);
  c.add_resistor("R2", "out", "0", 1000.0);
  // The MNA pivots legitimately span many orders of magnitude (g_min vs the
  // source rows), so a tiny limit trips every frequency point.
  AcOptions opt;
  opt.condition_limit = 1.5;
  const CheckedAcSolution r = ac_solve_checked(c, {1e3, 1e5, 1e6}, opt);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.failures.size(), 3u);
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    EXPECT_EQ(r.failures[i].freq_index, i);  // collected in ascending order
    EXPECT_EQ(r.failures[i].status.code(), core::ErrorCode::kIllConditioned);
    EXPECT_GT(r.failures[i].condition_estimate, opt.condition_limit);
  }
  EXPECT_DOUBLE_EQ(r.failures[1].freq_hz, 1e5);
}

TEST(AcSolveChecked, SingularPointReportsWithoutThrowing) {
  // Two ideal voltage sources across the same node pair: their branch rows
  // are identical, so the MNA matrix is exactly singular at every frequency.
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_vsource("V2", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "0", 1.0);
  const CheckedAcSolution r = ac_solve_checked(c, {1e3});
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].status.code(), core::ErrorCode::kSingular);
  EXPECT_EQ(r.failures[0].status.stage(), "numeric.lu");
}

TEST(AcSolve, RaisesStatusErrorNamingTheFailingIndex) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "out", 1000.0);
  c.add_resistor("R2", "out", "0", 1000.0);
  AcOptions opt;
  opt.condition_limit = 1.5;
  try {
    ac_solve(c, {1e3, 1e4}, opt);
    FAIL() << "expected StatusError";
  } catch (const core::StatusError& e) {
    EXPECT_EQ(e.status().code(), core::ErrorCode::kIllConditioned);
    EXPECT_EQ(e.status().stage(), "ckt.ac");
    EXPECT_NE(e.status().message().find("index 0"), std::string::npos)
        << e.status().to_string();
    EXPECT_NE(e.status().message().find("2/2"), std::string::npos);
  }
}

TEST(Circuit, ElementValidation) {
  Circuit c;
  EXPECT_THROW(c.add_resistor("R", "a", "b", 0.0), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor("C", "a", "b", -1.0), std::invalid_argument);
  EXPECT_THROW(c.add_inductor("L", "a", "b", 0.0), std::invalid_argument);
  c.add_resistor("R1", "a", "b", 1.0);
  EXPECT_THROW(c.add_resistor("R1", "a", "b", 1.0), std::invalid_argument);  // dup
  c.add_inductor("L1", "a", "b", 1e-6);
  c.add_inductor("L2", "b", "0", 1e-6);
  EXPECT_THROW(c.add_coupling("K", "L1", "L1", 0.5), std::invalid_argument);
  EXPECT_THROW(c.add_coupling("K", "L1", "L2", 1.5), std::invalid_argument);
  EXPECT_THROW(c.inductor_index("L9"), std::invalid_argument);
}

TEST(Circuit, InductanceMatrixSymmetric) {
  Circuit c;
  c.add_inductor("L1", "a", "0", 2e-6);
  c.add_inductor("L2", "b", "0", 8e-6);
  c.add_coupling("K", "L1", "L2", 0.25);
  const auto m = c.inductance_matrix();
  EXPECT_DOUBLE_EQ(m[0][0], 2e-6);
  EXPECT_DOUBLE_EQ(m[1][1], 8e-6);
  EXPECT_DOUBLE_EQ(m[0][1], 0.25 * 4e-6);
  EXPECT_DOUBLE_EQ(m[0][1], m[1][0]);
}

TEST(Circuit, SetCouplingUpdatesInPlace) {
  Circuit c;
  c.add_inductor("L1", "a", "0", 1e-6);
  c.add_inductor("L2", "b", "0", 1e-6);
  c.set_coupling("L1", "L2", 0.3);
  ASSERT_EQ(c.couplings().size(), 1u);
  c.set_coupling("L2", "L1", 0.1);  // reversed order updates the same pair
  ASSERT_EQ(c.couplings().size(), 1u);
  EXPECT_DOUBLE_EQ(c.couplings()[0].k, 0.1);
}

// Each degenerate grid request surfaces as its own line-item
// kInvalidArgument instead of num::log_space's generic throw.
TEST(LogFrequencyGrid, HappyPathSpansTheRangeGeometrically) {
  const auto grid = log_frequency_grid(units::Hertz{150e3}, units::Hertz{108e6}, 50);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid.value().size(), 50u);
  EXPECT_DOUBLE_EQ(grid.value().front().raw(), 150e3);
  // The last point is f_lo * ratio^(n-1): a few ULPs of accumulated rounding
  // from f_hi, matching num::log_space so solved grids stay bit-identical
  // across both entry points.
  EXPECT_NEAR(grid.value().back().raw(), 108e6, 108e6 * 1e-12);
  for (std::size_t i = 1; i < 50; ++i) {
    EXPECT_GT(grid.value()[i].raw(), grid.value()[i - 1].raw());
  }
}

TEST(LogFrequencyGrid, FewerThanTwoPointsIsInvalid) {
  for (std::size_t n : {0u, 1u}) {
    const auto r = log_frequency_grid(units::Hertz{1e3}, units::Hertz{1e6}, n);
    ASSERT_FALSE(r.ok()) << n;
    EXPECT_EQ(r.status().code(), core::ErrorCode::kInvalidArgument);
    EXPECT_EQ(r.status().stage(), "ckt.grid");
    EXPECT_NE(r.status().message().find(">= 2 points"), std::string::npos);
  }
}

TEST(LogFrequencyGrid, NonPositiveStartIsInvalid) {
  for (double lo : {0.0, -1.0}) {
    const auto r = log_frequency_grid(units::Hertz{lo}, units::Hertz{1e6}, 10);
    ASSERT_FALSE(r.ok()) << lo;
    EXPECT_EQ(r.status().code(), core::ErrorCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("must be positive"), std::string::npos);
  }
}

TEST(LogFrequencyGrid, EqualEndpointsAreInvalid) {
  const auto r = log_frequency_grid(units::Hertz{1e6}, units::Hertz{1e6}, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::ErrorCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("equal"), std::string::npos);
}

TEST(LogFrequencyGrid, InvertedEndpointsAreInvalid) {
  const auto r = log_frequency_grid(units::Hertz{1e6}, units::Hertz{1e3}, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::ErrorCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("inverted"), std::string::npos);
}

TEST(LogFrequencyGrid, RoundingToDuplicateAdjacentPointsIsInvalid) {
  // A span of a few ULP cannot host 200 distinct geometric points.
  const double lo = 1e6;
  const double hi = std::nextafter(std::nextafter(lo, 2e6), 2e6);
  const auto r = log_frequency_grid(units::Hertz{lo}, units::Hertz{hi}, 200);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::ErrorCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("duplicate adjacent"), std::string::npos);
}

// Indices of the points an armed lu site fails on one ladder sweep.
std::vector<std::size_t> injected_lu_failures(std::size_t stages, std::uint64_t seed) {
  flow::LargeScenarioOptions o;
  o.n_stages = stages;
  const flow::LargeScenarioCircuit sc = flow::make_large_scenario_circuit(o);
  struct Guard {
    ~Guard() { core::FaultInjector::instance().disarm(); }
  } guard;
  core::FaultInjector::instance().configure(core::FaultSite::kLu, 0.5, seed);
  const CheckedAcSolution r =
      ac_solve_checked(sc.circuit, num::log_space(150e3, 108e6, 40));
  std::vector<std::size_t> idx;
  for (const AcPointFailure& f : r.failures) {
    EXPECT_EQ(f.status.code(), core::ErrorCode::kInjectedFault);
    idx.push_back(f.freq_index);
  }
  return idx;
}

// The lu fault site keys on entries of the unpermuted matrix, so an armed
// sweep fails at the same points whichever way the ladder is factored. The
// lists were recorded with the dense solver. The key reads the first,
// center and last diagonal entries; on the 64-stage ladder none of them
// carries a capacitor, so a seed fails a whole sweep or none of it, while
// at 66 stages the center entry is a capacitor node and the failures vary
// with frequency.
TEST(AcSolveChecked, InjectedLuFaultsHitTheRecordedLadderPoints) {
  std::vector<std::size_t> all(40);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<std::size_t> none;
  const std::vector<std::vector<std::size_t>> at64 = {all, all, none, all,
                                                      all, all, none, all};
  for (std::uint64_t seed = 1; seed <= at64.size(); ++seed) {
    EXPECT_EQ(injected_lu_failures(64, seed), at64[seed - 1]) << "seed " << seed;
  }
  const std::vector<std::vector<std::size_t>> at66 = {
      {0, 1, 2, 6, 9, 11, 15, 17, 21, 22, 23, 25, 26, 27, 28, 32, 35, 37, 38},
      {0, 5, 6, 7, 8, 10, 12, 17, 18, 19, 21, 22, 23, 24, 25, 26, 28, 30, 31, 32,
       34, 35, 36, 37, 38},
      {1, 2, 3, 4, 6, 7, 8, 9, 13, 14, 15, 16, 17, 18, 22, 23, 24, 27, 29, 30,
       31, 32, 33, 34, 35, 36, 37, 39},
  };
  for (std::uint64_t seed = 1; seed <= at66.size(); ++seed) {
    EXPECT_EQ(injected_lu_failures(66, seed), at66[seed - 1]) << "seed " << seed;
  }
}

// The 64-stage ladder (387 unknowns, band path): the solution satisfies
// the circuit's own equations, computed here from its element lists. Every
// node's KCL holds except at the source node, where the source's branch
// current is the equation's free unknown and the source's voltage
// constraint is checked instead; every inductor's branch equation holds.
TEST(AcSolveChecked, LadderSolutionSatisfiesKclAndBranchEquations) {
  flow::LargeScenarioOptions o;
  o.n_stages = 64;
  const Circuit c = flow::make_large_scenario_circuit(o).circuit;
  ASSERT_TRUE(c.switches().empty() && c.diodes().empty() && c.isources().empty());
  ASSERT_EQ(c.vsources().size(), 1u);
  const std::vector<double> freqs = {150e3, 1.7e6, 23e6, 108e6};
  const AcOptions opt;
  const CheckedAcSolution r = ac_solve_checked(c, freqs, opt);
  ASSERT_TRUE(r.ok());
  const auto lmat = c.inductance_matrix();
  const std::size_t nn = c.node_count();
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    const double w = kTwoPi * freqs[fi];
    std::vector<Complex> v(nn);
    for (std::size_t n = 0; n < nn; ++n) {
      v[n] = r.solution.voltage(c.node_name(static_cast<NodeId>(n)), fi);
    }
    const auto volt = [&](NodeId id) { return id >= 0 ? v[index(id)] : Complex{}; };
    // Net current leaving each node and the sum of the terms' magnitudes.
    std::vector<Complex> net(nn);
    std::vector<double> scale(nn, 0.0);
    const auto leave = [&](NodeId id, Complex i) {
      if (id < 0) return;
      net[index(id)] += i;
      scale[index(id)] += std::abs(i);
    };
    for (std::size_t n = 0; n < nn; ++n) leave(static_cast<NodeId>(n), opt.g_min * v[n]);
    for (const Resistor& e : c.resistors()) {
      const Complex i = (volt(e.n1) - volt(e.n2)) / e.ohms;
      leave(e.n1, i);
      leave(e.n2, -i);
    }
    for (const Capacitor& e : c.capacitors()) {
      const Complex i = Complex{0.0, w * e.farads} * (volt(e.n1) - volt(e.n2));
      leave(e.n1, i);
      leave(e.n2, -i);
    }
    const auto& inds = c.inductors();
    std::vector<Complex> il(inds.size());
    for (std::size_t k = 0; k < inds.size(); ++k) {
      il[k] = r.solution.inductor_current(inds[k].name, fi);
      leave(inds[k].n1, il[k]);
      leave(inds[k].n2, -il[k]);
    }
    const VSource& vs = c.vsources().front();
    for (std::size_t n = 0; n < nn; ++n) {
      const auto id = static_cast<NodeId>(n);
      if (id == vs.n1 || id == vs.n2) continue;
      EXPECT_LE(std::abs(net[n]), 1e-9 * scale[n])
          << "KCL at " << c.node_name(id) << ", f index " << fi;
    }
    const Complex src = vs.ac_mag * std::polar(1.0, vs.ac_phase_deg * std::numbers::pi / 180.0);
    EXPECT_LE(std::abs(volt(vs.n1) - volt(vs.n2) - src), 1e-9 * std::abs(src));
    for (std::size_t k = 0; k < inds.size(); ++k) {
      Complex flux{};
      double flux_scale = 0.0;
      for (std::size_t j = 0; j < inds.size(); ++j) {
        const Complex t = Complex{0.0, w * lmat[k][j]} * il[j];
        flux += t;
        flux_scale += std::abs(t);
      }
      const Complex drop = volt(inds[k].n1) - volt(inds[k].n2);
      EXPECT_LE(std::abs(drop - flux), 1e-9 * (std::abs(drop) + flux_scale))
          << "branch " << inds[k].name << ", f index " << fi;
    }
  }
}

// The solver selection is a pure function of the circuit: the converters'
// small systems stay dense (the buck orders to kl = ku = 7 over 26
// unknowns, the boost to 6 over 23), the filter ladders order to
// kl = ku = 3 and take the band path.
TEST(AcBandSelection, ConvertersStayDenseLaddersGoBanded) {
  EXPECT_EQ(ac_band_ordering(flow::make_buck_converter().circuit), nullptr);
  EXPECT_EQ(ac_band_ordering(flow::make_boost_converter().circuit), nullptr);
  for (const std::size_t stages : {16u, 64u}) {
    flow::LargeScenarioOptions o;
    o.n_stages = stages;
    const Circuit c = flow::make_large_scenario_circuit(o).circuit;
    const std::shared_ptr<const num::BandOrdering> band = ac_band_ordering(c);
    ASSERT_NE(band, nullptr) << stages << " stages";
    EXPECT_EQ(band->size(), c.unknown_count());
    EXPECT_EQ(band->kl, 3u) << stages << " stages";
    EXPECT_EQ(band->ku, 3u) << stages << " stages";
  }
}

}  // namespace
}  // namespace emi::ckt
