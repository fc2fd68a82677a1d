#include <gtest/gtest.h>

#include <cmath>

#include "src/ckt/ac.hpp"
#include "src/emi/cispr25.hpp"
#include "src/emi/lisn.hpp"
#include "src/numeric/stats.hpp"

namespace emi::emc {
namespace {

TEST(Lisn, AttachCreatesNetworkAndMeasNode) {
  ckt::Circuit c;
  c.add_vsource("VB", "batt", "0", ckt::Waveform::dc(12.0));
  const std::string meas = attach_lisn(c, "batt", "dut");
  EXPECT_EQ(meas, "LISN_meas");
  EXPECT_EQ(c.inductors().size(), 1u);
  EXPECT_EQ(c.capacitors().size(), 1u);
  EXPECT_EQ(c.resistors().size(), 2u);
  // Two LISNs coexist with different prefixes.
  attach_lisn(c, "batt", "dut2", "LISN2");
  EXPECT_EQ(c.inductors().size(), 2u);
}

TEST(Lisn, HighFrequencyNoiseReachesReceiver) {
  // Inject noise at the DUT node; at HF the measured level approaches the
  // injected level (coupling cap transparent, AN inductor blocks the
  // battery path).
  ckt::Circuit c;
  c.add_vsource("VB", "batt", "0", ckt::Waveform::dc(12.0));
  const std::string meas = attach_lisn(c, "batt", "dut");
  c.add_vsource("VN", "nz", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_resistor("RN", "nz", "dut", 10.0);
  const ckt::AcSolution sol = ckt::ac_solve_checked(c, {100e3, 10e6, 100e6}).value();
  const double lo = std::abs(sol.voltage(meas, 0));
  const double hi = std::abs(sol.voltage(meas, 2));
  EXPECT_GT(hi, 0.5);      // most of the source appears at the receiver
  EXPECT_GT(hi, lo);       // and more at HF than at LF
}

TEST(Lisn, CouplingGainRises) {
  EXPECT_LT(lisn_coupling_gain(units::Hertz{10e3}), lisn_coupling_gain(units::Hertz{1e6}));
  EXPECT_NEAR(lisn_coupling_gain(units::Hertz{100e6}), 1.0, 1e-3);
}

TEST(Cispr25, BandLookup) {
  // FM band, class 3: 62 - 2*8 = 46 dBuV peak.
  const auto fm = cispr25_limit_dbuv(100e6, 3);
  ASSERT_TRUE(fm.has_value());
  EXPECT_DOUBLE_EQ(*fm, 46.0);
  // Between bands: no limit.
  EXPECT_FALSE(cispr25_limit_dbuv(3e6, 3).has_value());
  // LW band, class 1 = full 110.
  EXPECT_DOUBLE_EQ(*cispr25_limit_dbuv(0.2e6, 1), 110.0);
  // Class 5 is 32 dB below class 1.
  EXPECT_DOUBLE_EQ(*cispr25_limit_dbuv(0.2e6, 5), 110.0 - 32.0);
}

TEST(Cispr25, AverageDetectorTenBelowPeak) {
  const auto pk = cispr25_limit_dbuv(1e6, 3, Detector::kPeak);
  const auto avg = cispr25_limit_dbuv(1e6, 3, Detector::kAverage);
  ASSERT_TRUE(pk && avg);
  EXPECT_DOUBLE_EQ(*pk - *avg, 10.0);
}

TEST(Cispr25, ClassValidation) {
  EXPECT_THROW(cispr25_limit_dbuv(1e6, 0), std::invalid_argument);
  EXPECT_THROW(cispr25_limit_dbuv(1e6, 6), std::invalid_argument);
}

TEST(Cispr25, BandsAreOrderedAndDisjoint) {
  const auto& bands = cispr25_bands();
  ASSERT_GE(bands.size(), 4u);
  for (std::size_t i = 1; i < bands.size(); ++i) {
    EXPECT_GE(bands[i].f_lo_hz, bands[i - 1].f_hi_hz);
  }
}

TEST(LimitMargin, CountsViolations) {
  // Two in-band points: one passing, one failing; one out-of-band point.
  const std::vector<double> freqs{0.2e6, 1e6, 3e6};
  // Class 3 limits: LW 94, MW 70.
  const std::vector<double> levels{80.0, 75.0, 200.0};
  const LimitMargin m = limit_margin(freqs, levels, 3);
  EXPECT_EQ(m.violations, 1u);
  EXPECT_DOUBLE_EQ(m.worst_margin_db, 70.0 - 75.0);
  EXPECT_DOUBLE_EQ(m.worst_freq_hz, 1e6);
  EXPECT_THROW(limit_margin(freqs, {1.0}, 3), std::invalid_argument);
}

}  // namespace
}  // namespace emi::emc
