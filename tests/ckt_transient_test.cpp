#include "src/ckt/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "src/core/status.hpp"

namespace emi::ckt {
namespace {

TEST(Transient, RcStepResponse) {
  // v(t) = V * (1 - exp(-t/RC)), RC = 1 ms.
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(1.0));
  c.add_resistor("R1", "in", "out", 1000.0);
  c.add_capacitor("C1", "out", "0", 1e-6);
  TransientOptions opt;
  opt.t_stop = 5e-3;
  opt.dt = 1e-6;
  const TransientResult tr = transient_solve(c, opt);
  const double tau = 1e-3;
  for (double t : {0.5e-3, 1e-3, 2e-3, 4e-3}) {
    const auto step = static_cast<std::size_t>(t / opt.dt);
    const double expected = 1.0 - std::exp(-t / tau);
    EXPECT_NEAR(tr.voltage("out", step), expected, 2e-3) << "t = " << t;
  }
}

TEST(Transient, RlCurrentRise) {
  // i(t) = (V/R)(1 - exp(-t R/L)).
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(10.0));
  c.add_resistor("R1", "in", "a", 10.0);
  c.add_inductor("L1", "a", "0", 10e-3);
  TransientOptions opt;
  opt.t_stop = 5e-3;
  opt.dt = 1e-6;
  const TransientResult tr = transient_solve(c, opt);
  const double tau = 1e-3;
  for (double t : {1e-3, 3e-3}) {
    const auto step = static_cast<std::size_t>(t / opt.dt);
    EXPECT_NEAR(tr.inductor_current("L1", step), (1.0 - std::exp(-t / tau)), 3e-3);
  }
}

TEST(Transient, LcOscillationFrequencyAndAmplitude) {
  // Undriven LC with an initial kick from a step source through a resistor;
  // check the ring frequency of the lightly damped RLC.
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(1.0));
  c.add_resistor("R1", "in", "a", 5.0);
  c.add_inductor("L1", "a", "b", 1e-3);
  c.add_capacitor("C1", "b", "0", 1e-6);
  TransientOptions opt;
  opt.t_stop = 2e-3;
  opt.dt = 2e-7;
  const TransientResult tr = transient_solve(c, opt);
  // Find zero crossings of v(b) - 1 (final value) to estimate the period.
  const auto wave = tr.voltage_waveform("b");
  std::vector<double> crossings;
  for (std::size_t i = 1; i < wave.size(); ++i) {
    if ((wave[i - 1] - 1.0) < 0.0 && (wave[i] - 1.0) >= 0.0) {
      crossings.push_back(tr.times()[i]);
    }
  }
  ASSERT_GE(crossings.size(), 3u);
  const double period = crossings[2] - crossings[1];
  const double f0 = 1.0 / (2.0 * std::numbers::pi * std::sqrt(1e-3 * 1e-6));
  EXPECT_NEAR(1.0 / period, f0, 0.02 * f0);
}

TEST(Transient, TrapezoidalConservesLcEnergyApproximately) {
  // Trapezoidal integration is A-stable and (nearly) energy preserving on
  // LC - the ring amplitude must not decay by more than a few percent.
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::pwl({{0.0, 1.0}, {1e-5, 1.0}, {1.1e-5, 0.0}}));
  c.add_resistor("R1", "in", "a", 1e-2);
  c.add_inductor("L1", "a", "b", 1e-4);
  c.add_capacitor("C1", "b", "0", 1e-8);
  TransientOptions opt;
  opt.t_stop = 1e-3;
  opt.dt = 5e-8;
  const TransientResult tr = transient_solve(c, opt);
  const auto wave = tr.voltage_waveform("b");
  double early_peak = 0.0, late_peak = 0.0;
  for (std::size_t i = wave.size() / 5; i < 2 * wave.size() / 5; ++i) {
    early_peak = std::max(early_peak, std::fabs(wave[i]));
  }
  for (std::size_t i = 4 * wave.size() / 5; i < wave.size(); ++i) {
    late_peak = std::max(late_peak, std::fabs(wave[i]));
  }
  EXPECT_GT(early_peak, 0.1);  // it actually rings
  EXPECT_GT(late_peak, 0.8 * early_peak);
}

TEST(Transient, DiodeHalfWaveRectifier) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::sine(0.0, 5.0, 1e3));
  c.add_resistor("R1", "in", "a", 10.0);
  c.add_diode("D1", "a", "out");
  c.add_resistor("RL", "out", "0", 1000.0);
  TransientOptions opt;
  opt.t_stop = 2e-3;
  opt.dt = 1e-6;
  const TransientResult tr = transient_solve(c, opt);
  double vmax = -100.0, vmin = 100.0;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    vmax = std::max(vmax, tr.voltage("out", i));
    vmin = std::min(vmin, tr.voltage("out", i));
  }
  EXPECT_GT(vmax, 3.5);          // conducts on positive half (minus drop)
  EXPECT_LT(vmax, 5.0);          // diode drop present
  EXPECT_GT(vmin, -0.5);         // blocks the negative half
}

TEST(Transient, SwitchedBuckConverterRegulates) {
  // A complete switching buck: 12 V in, PWM switch, freewheeling diode,
  // LC output filter. Average output ~ duty * Vin.
  constexpr double fsw = 100e3;
  constexpr double duty = 0.5;
  Circuit c;
  c.add_vsource("VIN", "vin", "0", Waveform::dc(12.0));
  const double period = 1.0 / fsw;
  c.add_switch("S1", "vin", "sw",
               Waveform::trapezoid(0.0, 1.0, period, 50e-9, duty * period, 50e-9),
               10e-3, 1e7);
  c.add_diode("D1", "0", "sw", 1e-9, 2.0);
  c.add_inductor("LB", "sw", "out", 47e-6);
  c.add_capacitor("CO", "out", "0", 47e-6);
  c.add_resistor("RL", "out", "0", 6.0);
  TransientOptions opt;
  opt.t_stop = 2e-3;
  opt.dt = 2e-8;
  const TransientResult tr = transient_solve(c, opt);
  // Average over the last 20 % (settled).
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 4 * tr.size() / 5; i < tr.size(); ++i) {
    sum += tr.voltage("out", i);
    ++count;
  }
  const double v_avg = sum / static_cast<double>(count);
  EXPECT_NEAR(v_avg, duty * 12.0, 1.2);  // within diode/switch losses
  // Inductor current is positive on average (continuous conduction).
  EXPECT_GT(tr.inductor_current("LB", tr.size() - 1), 0.0);
}

TEST(Transient, CoupledInductorsTransferEnergy) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::sine(0.0, 1.0, 10e3));
  c.add_resistor("Rs", "in", "p", 10.0);
  c.add_inductor("L1", "p", "0", 1e-3);
  c.add_inductor("L2", "s", "0", 1e-3);
  c.add_resistor("RL", "s", "0", 1000.0);
  c.add_coupling("K", "L1", "L2", 0.8);
  TransientOptions opt;
  opt.t_stop = 5e-4;
  opt.dt = 1e-7;
  const TransientResult tr = transient_solve(c, opt);
  double vmax = 0.0;
  for (std::size_t i = tr.size() / 2; i < tr.size(); ++i) {
    vmax = std::max(vmax, std::fabs(tr.voltage("s", i)));
  }
  EXPECT_GT(vmax, 0.1);  // secondary sees induced voltage
}

TEST(Transient, Validation) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(1.0));
  c.add_resistor("R1", "in", "0", 1.0);
  TransientOptions opt;
  opt.dt = 0.0;
  EXPECT_THROW(transient_solve(c, opt), std::invalid_argument);
  opt.dt = 1.0;
  opt.t_stop = 0.5;
  EXPECT_THROW(transient_solve(c, opt), std::invalid_argument);
}

// A failed step raises the Status of its LU solve: here a floating resistor
// without the g_min shunt makes the MNA matrix singular.
TEST(Transient, SingularStepRaisesTheLuStatus) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(1.0));
  c.add_resistor("R1", "in", "0", 1.0);
  c.add_resistor("R2", "x", "y", 1.0);  // no path to ground
  TransientOptions opt;
  opt.t_stop = 1e-5;
  opt.dt = 1e-6;
  opt.g_min = 0.0;
  try {
    (void)transient_solve(c, opt);
    FAIL() << "expected core::StatusError";
  } catch (const core::StatusError& e) {
    EXPECT_EQ(e.status().code(), core::ErrorCode::kSingular);
    EXPECT_EQ(e.status().stage(), "numeric.lu");
  }
}

TEST(Transient, ResultAccessors) {
  Circuit c;
  c.add_vsource("V1", "in", "0", Waveform::dc(2.0));
  c.add_resistor("R1", "in", "out", 1.0);
  c.add_resistor("R2", "out", "0", 1.0);
  TransientOptions opt;
  opt.t_stop = 1e-5;
  opt.dt = 1e-6;
  const TransientResult tr = transient_solve(c, opt);
  EXPECT_EQ(tr.times().size(), tr.size());
  EXPECT_NEAR(tr.voltage("out", tr.size() - 1), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(tr.voltage("0", 3), 0.0);
  EXPECT_THROW(tr.voltage("zz", 0), std::invalid_argument);
  const auto wave = tr.voltage_waveform("out");
  EXPECT_EQ(wave.size(), tr.size());
}

}  // namespace
}  // namespace emi::ckt
