// Cross-module parameterized property sweeps: analytic transfer functions
// over frequency decades, standard-limit consistency over classes, and
// reciprocity/symmetry of the field solver over random poses.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "src/ckt/ac.hpp"
#include "src/emi/cispr25.hpp"
#include "src/numeric/rng.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/coupling.hpp"

namespace emi {
namespace {

// --- RC low-pass |H| matches 1/sqrt(1+(f/fc)^2) across five decades --------
class RcTransfer : public ::testing::TestWithParam<double> {};

TEST_P(RcTransfer, MagnitudeAndPhase) {
  const double f = GetParam();
  ckt::Circuit c;
  c.add_vsource("V1", "in", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "out", 1591.5);  // fc = 1/(2 pi R C) = 100 kHz
  c.add_capacitor("C1", "out", "0", 1e-9);
  const double fc = 1.0 / (2.0 * std::numbers::pi * 1591.5 * 1e-9);
  const ckt::AcSolution sol = ckt::ac_solve_checked(c, {f}).value();
  const auto v = sol.voltage("out", 0);
  const double expected_mag = 1.0 / std::sqrt(1.0 + (f / fc) * (f / fc));
  EXPECT_NEAR(std::abs(v), expected_mag, 1e-6 + 1e-3 * expected_mag) << f;
  const double expected_phase = -std::atan(f / fc);
  EXPECT_NEAR(std::arg(v), expected_phase, 1e-3) << f;
}

INSTANTIATE_TEST_SUITE_P(Decades, RcTransfer,
                         ::testing::Values(1e3, 1e4, 1e5, 1e6, 1e7, 1e8));

// --- series RLC |I| follows the analytic impedance across the resonance ----
class RlcCurrent : public ::testing::TestWithParam<double> {};

TEST_P(RlcCurrent, MatchesImpedance) {
  const double f = GetParam();
  constexpr double R = 25.0, L = 10e-6, C = 10e-9;
  ckt::Circuit c;
  c.add_vsource("V1", "in", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_resistor("R1", "in", "a", R);
  c.add_inductor("L1", "a", "b", L);
  c.add_capacitor("C1", "b", "0", C);
  const ckt::AcSolution sol = ckt::ac_solve_checked(c, {f}).value();
  const double w = 2.0 * std::numbers::pi * f;
  const double x = w * L - 1.0 / (w * C);
  const double z = std::sqrt(R * R + x * x);
  EXPECT_NEAR(std::abs(sol.inductor_current("L1", 0)), 1.0 / z, 2e-3 / z) << f;
}

INSTANTIATE_TEST_SUITE_P(AroundResonance, RlcCurrent,
                         ::testing::Values(1e5, 3e5, 5.03e5, 7e5, 2e6, 2e7));

// --- CISPR 25 limits: monotone in class, average 10 dB under peak ----------
class CisprClasses : public ::testing::TestWithParam<int> {};

TEST_P(CisprClasses, MonotoneAndConsistent) {
  const int cls = GetParam();
  for (const emc::Cispr25Band& b : emc::cispr25_bands()) {
    const double f = 0.5 * (b.f_lo_hz + b.f_hi_hz);
    const auto pk = emc::cispr25_limit_dbuv(f, cls);
    ASSERT_TRUE(pk.has_value());
    const auto avg = emc::cispr25_limit_dbuv(f, cls, emc::Detector::kAverage);
    EXPECT_DOUBLE_EQ(*pk - *avg, 10.0);
    if (cls > 1) {
      EXPECT_LT(*pk, *emc::cispr25_limit_dbuv(f, cls - 1)) << b.service;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Classes, CisprClasses, ::testing::Range(1, 6));

// --- field-solver reciprocity over random poses -----------------------------
class MutualReciprocity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutualReciprocity, RandomPoses) {
  num::Rng rng(GetParam());
  const peec::ComponentFieldModel a = peec::x_capacitor("A");
  const peec::ComponentFieldModel b = peec::bobbin_coil("B");
  const peec::CouplingExtractor ex{{4, 1}};  // cheap quadrature, same both ways
  for (int trial = 0; trial < 3; ++trial) {
    const peec::Pose pa{{rng.uniform(-20, 20), rng.uniform(-20, 20), 0.0},
                        rng.uniform(0.0, 360.0)};
    const peec::Pose pb{{rng.uniform(25, 60), rng.uniform(-20, 20), 0.0},
                        rng.uniform(0.0, 360.0)};
    const peec::PlacedModel ma{&a, pa};
    const peec::PlacedModel mb{&b, pb};
    const double m_ab = ex.mutual(ma, mb).raw();
    const double m_ba = ex.mutual(mb, ma).raw();
    EXPECT_NEAR(m_ab, m_ba, 1e-15 + 1e-9 * std::fabs(m_ab));
    // Rigid translation of BOTH models leaves the mutual unchanged.
    const geom::Vec3 shift{rng.uniform(-10, 10), rng.uniform(-10, 10), 0.0};
    const peec::PlacedModel ma2{&a, {pa.position + shift, pa.rot_deg}};
    const peec::PlacedModel mb2{&b, {pb.position + shift, pb.rot_deg}};
    EXPECT_NEAR(ex.mutual(ma2, mb2).raw(), m_ab, 1e-15 + 1e-6 * std::fabs(m_ab));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutualReciprocity,
                         ::testing::Range<std::uint64_t>(100, 108));

}  // namespace
}  // namespace emi
