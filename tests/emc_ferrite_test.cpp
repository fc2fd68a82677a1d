#include "src/emi/ferrite.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "src/ckt/ac.hpp"

namespace emi::emc {
namespace {

TEST(Ferrite, ImpedanceRegions) {
  FerriteBeadParams p;
  p.l_henry = 1e-6;
  p.f_knee_hz = 10e6;
  p.c_par = 1.5e-12;
  p.r_dc = 0.05;
  const double r_flat = 2.0 * std::numbers::pi * p.f_knee_hz * p.l_henry;  // ~63 ohm

  // Inductive region: |Z| ~ wL, doubling f doubles Z.
  const double z1 = ferrite_bead_impedance(p, 100e3);
  const double z2 = ferrite_bead_impedance(p, 200e3);
  EXPECT_NEAR(z2 / z1, 2.0, 0.05);
  EXPECT_NEAR(z1, 2.0 * std::numbers::pi * 100e3 * p.l_henry + p.r_dc, 0.1);

  // Resistive plateau around/above the knee.
  const double z_knee = ferrite_bead_impedance(p, 30e6);
  EXPECT_GT(z_knee, 0.6 * r_flat);
  EXPECT_LT(z_knee, 1.2 * r_flat);

  // Capacitive fall: well past the RC corner 1/(2*pi*R*Cpar) ~ 1.7 GHz the
  // impedance drops far below the plateau.
  EXPECT_LT(ferrite_bead_impedance(p, 5e9), 0.4 * r_flat);
  EXPECT_LT(ferrite_bead_impedance(p, 5e9), ferrite_bead_impedance(p, 100e6));
}

TEST(Ferrite, MonotoneUpToKnee) {
  FerriteBeadParams p;
  double prev = 0.0;
  for (double f = 100e3; f <= 10e6; f *= 2.0) {
    const double z = ferrite_bead_impedance(p, f);
    EXPECT_GT(z, prev);
    prev = z;
  }
}

TEST(Ferrite, AttachedBeadMatchesClosedForm) {
  FerriteBeadParams p;
  ckt::Circuit c;
  c.add_vsource("V1", "in", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_resistor("RS", "in", "a", 50.0);
  attach_ferrite_bead(c, "FB", "a", "b", p);
  c.add_resistor("RL", "b", "0", 50.0);
  for (double f : {1e6, 10e6, 50e6}) {
    const ckt::AcSolution sol = ckt::ac_solve_checked(c, {f}).value();
    // Voltage divider check: |V_b| = |Z_RL / (RS + Z_bead + RL)|.
    const double z_bead = ferrite_bead_impedance(p, f);
    const double expected_mag_lower = 50.0 / (100.0 + z_bead * 1.1);
    const double expected_mag_upper = 50.0 / (100.0 + z_bead * 0.9);
    const double got = std::abs(sol.voltage("b", 0));
    EXPECT_GT(got, expected_mag_lower * 0.9) << f;
    EXPECT_LT(got, expected_mag_upper * 1.1) << f;
  }
}

TEST(Ferrite, BeadDampsFilterResonance) {
  // An undamped LC input filter rings; swapping the ideal inductor for a
  // bead-modelled (lossy) one kills the resonant peak - the practical use.
  const auto peak_gain = [](bool lossy) {
    ckt::Circuit c;
    c.add_vsource("V1", "in", "0", ckt::Waveform::dc(0.0), 1.0);
    c.add_resistor("RS", "in", "a", 0.1);
    if (lossy) {
      // Knee placed near the LC resonance (50 kHz) so the loss resistance
      // ~ 2*pi*f_knee*L lands at the characteristic impedance sqrt(L/C).
      FerriteBeadParams p;
      p.l_henry = 10e-6;
      p.f_knee_hz = 60e3;
      attach_ferrite_bead(c, "FB", "a", "b", p);
    } else {
      c.add_inductor("L1", "a", "b", 10e-6);
    }
    c.add_capacitor("C1", "b", "0", 1e-6);
    double peak = 0.0;
    for (double f = 20e3; f < 300e3; f *= 1.05) {
      const ckt::AcSolution sol = ckt::ac_solve_checked(c, {f}).value();
      peak = std::max(peak, std::abs(sol.voltage("b", 0)));
    }
    return peak;
  };
  EXPECT_GT(peak_gain(false), 5.0);   // sharp resonance
  EXPECT_LT(peak_gain(true), 3.0);    // damped
}

TEST(Ferrite, Validation) {
  ckt::Circuit c;
  FerriteBeadParams bad;
  bad.l_henry = 0.0;
  EXPECT_THROW(attach_ferrite_bead(c, "FB", "a", "b", bad), std::invalid_argument);
  EXPECT_THROW(ferrite_bead_impedance({}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace emi::emc
