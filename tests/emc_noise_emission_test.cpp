#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "src/emi/emission.hpp"
#include "src/emi/lisn.hpp"
#include "src/emi/measurement.hpp"
#include "src/emi/noise_source.hpp"
#include "src/numeric/stats.hpp"

namespace emi::emc {
namespace {

ckt::Waveform ref_trapezoid() {
  // 12 V, 300 kHz, 30 ns edges, ~42 % duty.
  const double period = 1.0 / 300e3;
  return ckt::Waveform::trapezoid(0.0, 12.0, period, 30e-9, 0.42 * period - 30e-9,
                                  30e-9);
}

TEST(NoiseSource, SpectrumParams) {
  const TrapezoidSpectrum s = spectrum_params(ref_trapezoid());
  EXPECT_DOUBLE_EQ(s.amplitude, 12.0);
  EXPECT_NEAR(s.on_s, 0.42 / 300e3, 1e-9);  // includes half edges
  EXPECT_DOUBLE_EQ(s.rise_s, 30e-9);
  EXPECT_THROW(spectrum_params(ckt::Waveform::dc(1.0)), std::invalid_argument);
}

TEST(NoiseSource, HarmonicFourierCheck) {
  // The n-th harmonic of a trapezoid equals 2*A*d*|sinc(pi n d)||sinc(pi n tr/T)|.
  const TrapezoidSpectrum s = spectrum_params(ref_trapezoid());
  const double d = s.on_s / s.period_s;
  const double h1 = harmonic_amplitude(s, 1);
  const double x_rise = std::numbers::pi * s.rise_s / s.period_s;
  const double expected1 =
      2.0 * 12.0 * d *
      std::fabs(std::sin(std::numbers::pi * d) / (std::numbers::pi * d)) *
      std::fabs(std::sin(x_rise) / x_rise);
  EXPECT_NEAR(h1, expected1, 1e-9 * expected1);
  EXPECT_THROW(harmonic_amplitude(s, 0), std::invalid_argument);
}

TEST(NoiseSource, EnvelopeBoundsHarmonics) {
  const TrapezoidSpectrum s = spectrum_params(ref_trapezoid());
  for (std::size_t n = 1; n <= 200; n += 7) {
    const double f = static_cast<double>(n) / s.period_s;
    EXPECT_GE(envelope(s, f) * 1.0001, harmonic_amplitude(s, n)) << "n = " << n;
  }
}

TEST(NoiseSource, EnvelopeCornersAndSlopes) {
  const TrapezoidSpectrum s = spectrum_params(ref_trapezoid());
  const double f1 = 1.0 / (std::numbers::pi * s.on_s);
  const double f2 = 1.0 / (std::numbers::pi * s.rise_s);
  // Below f1: flat at 2*A*d.
  EXPECT_NEAR(envelope(s, f1 / 10.0), 2.0 * 12.0 * s.on_s / s.period_s, 1e-9);
  // Between f1 and f2: -20 dB/dec.
  const double e1 = envelope(s, 2e6);
  const double e2 = envelope(s, 4e6);
  EXPECT_NEAR(num::db20(e1 / e2), 6.02, 0.1);
  // Above f2: -40 dB/dec.
  const double e3 = envelope(s, 4.0 * f2);
  const double e4 = envelope(s, 8.0 * f2);
  EXPECT_NEAR(num::db20(e3 / e4), 12.04, 0.1);
  EXPECT_THROW(envelope(s, 0.0), std::invalid_argument);
}

// Simple testbed: noise source -> RC filter -> LISN.
ckt::Circuit testbed() {
  ckt::Circuit c;
  c.add_vsource("VB", "batt", "0", ckt::Waveform::dc(12.0));
  attach_lisn(c, "batt", "dut");
  c.add_vsource("VN", "nz", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_resistor("RS", "nz", "dut", 100.0);
  return c;
}

TEST(Emission, SweepGridAndLevels) {
  const ckt::Circuit c = testbed();
  const TrapezoidSpectrum s = spectrum_params(ref_trapezoid());
  EmissionSweepOptions opt;
  opt.n_points = 50;
  const EmissionSpectrum spec = conducted_emission(c, "LISN_meas", s, opt);
  ASSERT_EQ(spec.freqs_hz.size(), 50u);
  ASSERT_EQ(spec.level_dbuv.size(), 50u);
  EXPECT_NEAR(spec.freqs_hz.front(), 150e3, 1.0);
  EXPECT_NEAR(spec.freqs_hz.back(), 108e6, 100.0);
  // Levels are finite and within a plausible dBuV window.
  for (double l : spec.level_dbuv) {
    EXPECT_TRUE(std::isfinite(l));
    EXPECT_LT(l, 160.0);
    EXPECT_GT(l, -120.0);
  }
  // The envelope falls with frequency, so the level at the top of the sweep
  // is far below the level at the bottom.
  EXPECT_LT(spec.level_dbuv.back(), spec.level_dbuv.front());
}

TEST(Emission, ScaledVariantMatchesEnvelopePath) {
  const ckt::Circuit c = testbed();
  const TrapezoidSpectrum s = spectrum_params(ref_trapezoid());
  const std::vector<double> freqs = num::log_space(150e3, 108e6, 20);
  const EmissionSpectrum a =
      conducted_emission_scaled(c, "LISN_meas", freqs, envelope_series(s, freqs));
  EmissionSweepOptions opt;
  opt.n_points = 20;
  const EmissionSpectrum b = conducted_emission(c, "LISN_meas", s, opt);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(a.level_dbuv[i], b.level_dbuv[i], 1e-9);
  }
  EXPECT_THROW(conducted_emission_scaled(c, "LISN_meas", freqs, {1.0}),
               std::invalid_argument);
}

// A NaN or infinite frequency (a grid bound, or a point of a supplied grid)
// is a malformed grid at every emission entry point, not a spectrum of NaN
// levels.
TEST(Emission, NonFiniteFrequenciesAreRejected) {
  const ckt::Circuit c = testbed();
  const TrapezoidSpectrum s = spectrum_params(ref_trapezoid());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(num::log_space(bad, 1e6, 5), std::invalid_argument) << bad;
    EXPECT_THROW(num::log_space(1e3, bad, 5), std::invalid_argument) << bad;
    for (const bool bad_min : {true, false}) {
      EmissionSweepOptions opt;
      opt.n_points = 5;
      (bad_min ? opt.f_min_hz : opt.f_max_hz) = bad;
      EXPECT_THROW(conducted_emission(c, "LISN_meas", s, opt), std::invalid_argument)
          << bad;
      EXPECT_THROW(conducted_emission_adaptive(c, "LISN_meas", s, opt, {}),
                   std::invalid_argument)
          << bad;
    }
    EXPECT_THROW(conducted_emission_scaled(c, "LISN_meas", {1e6, bad}, {1.0, 1.0}),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Emission, DeltaDb) {
  EmissionSpectrum a{{1.0, 2.0}, {10.0, 20.0}};
  EmissionSpectrum b{{1.0, 2.0}, {13.0, 15.0}};
  const auto d = delta_db(a, b);
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], -5.0);
  EmissionSpectrum c{{1.0, 3.0}, {0.0, 0.0}};
  EXPECT_THROW(delta_db(a, c), std::invalid_argument);
}

TEST(Emission, SpectrumFromTransientFindsSwitchingHarmonics) {
  // Drive an RC divider with a 100 kHz square-ish wave and check the
  // fundamental shows up in the FFT spectrum.
  ckt::Circuit c;
  const double period = 1e-5;
  c.add_vsource("V1", "in", "0",
                ckt::Waveform::trapezoid(0.0, 1.0, period, 100e-9, 0.5 * period,
                                         100e-9));
  c.add_resistor("R1", "in", "out", 100.0);
  c.add_resistor("R2", "out", "0", 100.0);
  ckt::TransientOptions topt;
  topt.t_stop = 1e-3;
  topt.dt = 1e-8;
  const ckt::TransientResult tr = ckt::transient_solve(c, topt);
  const EmissionSpectrum spec = spectrum_from_transient(tr, "out", 0.2);
  // Locate the bin nearest 100 kHz.
  double best_level = -200.0;
  for (std::size_t i = 0; i < spec.freqs_hz.size(); ++i) {
    if (std::fabs(spec.freqs_hz[i] - 100e3) < 5e3) {
      best_level = std::max(best_level, spec.level_dbuv[i]);
    }
  }
  // Fundamental of a 0.5 V square wave at the divider: 2*0.5/pi ~ 0.32 V
  // ~ 110 dBuV.
  EXPECT_NEAR(best_level, 110.0, 3.0);
}

TEST(Measurement, PseudoMeasureDeterministicAndBounded) {
  EmissionSpectrum spec;
  spec.freqs_hz = num::log_space(150e3, 108e6, 100);
  spec.level_dbuv.assign(100, 50.0);
  const EmissionSpectrum m1 = pseudo_measure(spec);
  const EmissionSpectrum m2 = pseudo_measure(spec);
  ASSERT_EQ(m1.level_dbuv.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(m1.level_dbuv[i], m2.level_dbuv[i]);  // seeded
    EXPECT_NEAR(m1.level_dbuv[i], 50.0, 10.0);             // bounded ripple
  }
  // RMS of the ripple matches the requested dispersion.
  std::vector<double> ripple(100);
  for (std::size_t i = 0; i < 100; ++i) ripple[i] = m1.level_dbuv[i] - 50.0;
  EXPECT_NEAR(num::rms(ripple), 2.0, 1e-9);
  // The dispersion preserves correlation with the prediction.
  EXPECT_GT(num::pearson(m1.level_dbuv, spec.level_dbuv), -0.2);
}

TEST(Measurement, DifferentSeedDifferentRipple) {
  EmissionSpectrum spec;
  spec.freqs_hz = {1e6, 2e6, 3e6};
  spec.level_dbuv = {40.0, 40.0, 40.0};
  MeasurementModelOptions a, b;
  b.seed = 777;
  EXPECT_NE(pseudo_measure(spec, a).level_dbuv, pseudo_measure(spec, b).level_dbuv);
}

}  // namespace
}  // namespace emi::emc
