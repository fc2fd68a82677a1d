#include "src/core/units.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "src/ckt/ac.hpp"
#include "src/ckt/circuit.hpp"
#include "src/peec/capacitance.hpp"

namespace emi::units {
namespace {

using namespace literals;

// --- compile-time checks ------------------------------------------------
// The header carries its own static_assert battery; these add the cases the
// issue calls out explicitly plus the API-facing guarantees tests rely on.

// Zero overhead: a Quantity is exactly one double, trivially copyable.
static_assert(sizeof(Henry) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Millimeters>);

// Exact decimal conversions hold at compile time.
static_assert((1.0_m).to<Millimeters>().raw() == 1000.0);
static_assert((2500.0_um).to<Millimeters>().raw() == 2.5);
static_assert((150.0_khz).to<Hertz>().raw() == 150000.0);
static_assert((4.7_uh).to<NanoHenry>().raw() == 4700.0);
static_assert((100.0_pf).to<NanoFarad>().raw() == 0.1);

// Same-dimension heterogeneous comparison and arithmetic go through SI.
static_assert(1_m == 1000_mm);
static_assert(999.0_mm < 1.0_m);
static_assert((1.0_m + 1.0_mm).si() == 1.001);

// Dimensional identities from the paper's formulas.
static_assert(std::is_same_v<decltype(5.0_h * 2.0_a), Weber>);          // L*I -> flux
static_assert(std::is_same_v<decltype(12.0_v / 3.0_a), Ohm>);           // V/I -> R
static_assert(std::is_same_v<decltype(1.0 / (50.0_ohm * 1.0_f)), Hertz>);
static_assert(std::is_same_v<decltype(angular(1.0_hz)), RadPerSec>);
static_assert(std::is_same_v<decltype(RadPerSec(3.0) * Seconds(2.0)), Radians>);

// Dimensionless results decay to double; nothing else does (checked in the
// negative-compile harness, tests/negative_compile/).
static_assert(std::is_convertible_v<decltype(1.0_mm / 1.0_m), double>);
static_assert(!std::is_convertible_v<Millimeters, double>);
static_assert(!std::is_convertible_v<double, Millimeters>);
static_assert(!std::is_convertible_v<Meters, Millimeters>);

TEST(Units, RoundTripThroughSiIsExactForDecimalRatios) {
  const Millimeters d{17.5};
  EXPECT_DOUBLE_EQ(d.to<Meters>().to<Millimeters>().raw(), 17.5);
  const NanoHenry l{330.0};
  EXPECT_DOUBLE_EQ(l.to<Henry>().raw(), 330e-9);
  EXPECT_DOUBLE_EQ((4.7_uf).to<Farad>().raw(), 4.7e-6);
}

TEST(Units, RoundTripToleranceForNonDecimalValues) {
  // Values that are not exactly representable still round-trip to 1 ulp-ish.
  const Millimeters d{0.1 + 0.2};
  EXPECT_NEAR(d.to<Micrometers>().to<Millimeters>().raw(), d.raw(), 1e-15);
}

TEST(Units, LcResonanceLandsOnHertzViaAngular) {
  // 1/sqrt(L*C): 5 uH with 100 nF -> w0 ~ 1.414e6 rad/s, f0 ~ 225 kHz.
  const Henry l = (5.0_uh).to<Henry>();
  const Farad c = (100.0_nf).to<Farad>();
  const auto inv_sqrt_lc = 1.0 / units::sqrt(l * c);
  static_assert(std::is_same_v<std::remove_const_t<decltype(inv_sqrt_lc)>, Hertz>);
  const RadPerSec w0 = angular(cycles(angular(inv_sqrt_lc * 1.0)));
  EXPECT_NEAR(inv_sqrt_lc.raw(), 1.0 / std::sqrt(5e-6 * 100e-9), 1e-3);
  EXPECT_NEAR(w0.raw(), 2.0 * kPi * inv_sqrt_lc.raw(), 1e-6);
  EXPECT_NEAR(cycles(w0).raw(), inv_sqrt_lc.raw(), 1e-6);
}

TEST(Units, ScalarQuantitiesFlowIntoDouble) {
  const double k = (30.0_mm) / (60.0_mm);  // coupling-style ratio
  EXPECT_DOUBLE_EQ(k, 0.5);
  EXPECT_DOUBLE_EQ(units::abs(-3.0_mm).raw(), 3.0);
  EXPECT_EQ(units::min(2.0_mm, 5.0_mm), 2.0_mm);
  EXPECT_EQ(units::max(2.0_mm, 5.0_mm), 5.0_mm);
}

TEST(Units, DecibelAddsWhereLinearMultiplies) {
  const Decibel g1 = amplitude_db(10.0);   // 20 dB
  const Decibel g2 = amplitude_db(100.0);  // 40 dB
  EXPECT_NEAR((g1 + g2).raw(), 60.0, 1e-12);
  EXPECT_NEAR(amplitude_ratio(g1 + g2), 1000.0, 1e-9);
  EXPECT_NEAR(power_db(100.0).raw(), 20.0, 1e-12);
  EXPECT_LT(-3.0_db, 0.0_db);
}

TEST(Units, DbuvConventionMatchesEmcFormula) {
  // 1 mV = 60 dBuV.
  EXPECT_NEAR(dbuv(Volt{1e-3}).raw(), 60.0, 1e-12);
  EXPECT_NEAR(volts_from_dbuv(60.0_db).raw(), 1e-3, 1e-15);
  EXPECT_NEAR(volts_from_dbuv(dbuv(Volt{0.5})).raw(), 0.5, 1e-12);
}

// --- adoption smoke checks ----------------------------------------------

TEST(Units, TypedCircuitBuildersMatchRawBuilders) {
  ckt::Circuit raw;
  raw.add_resistor("R1", "a", "0", 50.0);
  raw.add_capacitor("C1", "a", "0", 1e-9);
  raw.add_inductor("L1", "a", "0", 5e-6);

  ckt::Circuit typed;
  typed.add_resistor("R1", "a", "0", 50.0_ohm);
  typed.add_capacitor("C1", "a", "0", (1.0_nf).to<Farad>());
  typed.add_inductor("L1", "a", "0", (5.0_uh).to<Henry>());
  typed.set_inductance("L1", (5.0_uh).to<Henry>());

  EXPECT_DOUBLE_EQ(raw.resistors()[0].ohms, typed.resistors()[0].ohms);
  EXPECT_DOUBLE_EQ(raw.capacitors()[0].farads, typed.capacitors()[0].farads);
  EXPECT_DOUBLE_EQ(raw.inductors()[0].henries, typed.inductors()[0].henries);
}

TEST(Units, TypedAcSweepMatchesRawSweep) {
  ckt::Circuit c;
  c.add_vsource("V1", "in", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "out", 50.0_ohm);
  c.add_capacitor("C1", "out", "0", Farad{1e-9});

  const std::vector<Hertz> grid =
      ckt::log_frequency_grid((10.0_khz).to<Hertz>(), Hertz{10e6}, 11).value();
  ASSERT_EQ(grid.size(), 11u);
  EXPECT_DOUBLE_EQ(grid.front().raw(), 10e3);
  EXPECT_DOUBLE_EQ(grid.back().raw(), 10e6);

  std::vector<double> raw_grid;
  for (const Hertz f : grid) raw_grid.push_back(f.raw());

  const ckt::AcSolution typed = ckt::ac_solve_checked(c, grid).value();
  const ckt::AcSolution raw = ckt::ac_solve_checked(c, raw_grid).value();
  const auto mag_t = typed.voltage_magnitude("out");
  const auto mag_r = raw.voltage_magnitude("out");
  ASSERT_EQ(mag_t.size(), mag_r.size());
  for (std::size_t i = 0; i < mag_t.size(); ++i) {
    EXPECT_DOUBLE_EQ(mag_t[i], mag_r[i]);
  }
}

TEST(Units, PeecCapacitiveCornerUsesTypedImpedance) {
  // 100 pF against 50 ohm: f_c = 1/(2*pi*R*C) ~ 31.8 MHz.
  const Hertz fc = peec::capacitive_corner((100.0_pf).to<Farad>(), 50.0_ohm);
  EXPECT_NEAR(fc.raw() / 1e6, 31.8, 0.1);
}

}  // namespace
}  // namespace emi::units
