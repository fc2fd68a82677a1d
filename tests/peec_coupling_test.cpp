#include "src/peec/coupling.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/peec/component_model.hpp"
#include "src/peec/ground_plane.hpp"

namespace emi::peec {
namespace {

class CouplingTest : public ::testing::Test {
 protected:
  ComponentFieldModel ca_ = x_capacitor("CA");
  ComponentFieldModel cb_ = x_capacitor("CB");
  CouplingExtractor ex_;
};

TEST_F(CouplingTest, SelfInductancePositiveAndCached) {
  const double l1 = ex_.self_inductance(ca_).raw();
  EXPECT_GT(l1, 0.0);
  EXPECT_DOUBLE_EQ(ex_.self_inductance(ca_).raw(), l1);  // cache hit, same value
  // X-cap loop ESL lands in the tens of nH - physically sensible.
  EXPECT_GT(l1 * 1e9, 10.0);
  EXPECT_LT(l1 * 1e9, 120.0);
}

TEST_F(CouplingTest, EffectivePermeabilityScalesSelfL) {
  ComponentFieldModel cored = ca_;
  cored.mu_eff = 10.0;
  EXPECT_NEAR(ex_.self_inductance(cored).raw() / ex_.self_inductance(ca_).raw(), 10.0, 1e-9);
}

TEST_F(CouplingTest, CoreReducesCouplingFactor) {
  // Per the effective-permeability model, the core multiplies L but stray
  // coupling flux stays air-borne, so k drops by sqrt(mu_eff).
  ComponentFieldModel cored = cb_;
  cored.mu_eff = 9.0;
  const double k_air = std::fabs(ex_.coupling_at(ca_, cb_, Millimeters{25.0}));
  const double k_cored = std::fabs(ex_.coupling_at(ca_, cored, Millimeters{25.0}));
  EXPECT_NEAR(k_cored / k_air, 1.0 / 3.0, 0.02);
}

TEST_F(CouplingTest, MutualReciprocity) {
  const PlacedModel a{&ca_, {{0, 0, 0}, 0.0}};
  const PlacedModel b{&cb_, {{22, 5, 0}, 30.0}};
  EXPECT_NEAR(ex_.mutual(a, b).raw(), ex_.mutual(b, a).raw(), 1e-18);
}

TEST_F(CouplingTest, CouplingFactorBelowOne) {
  // Even at tight spacing |k| stays physical.
  const double k = ex_.coupling_at(ca_, cb_, Millimeters{12.0});
  EXPECT_LT(std::fabs(k), 1.0);
}

TEST_F(CouplingTest, KFallsMonotonicallyWithDistance) {
  // Beyond the near-field sign crossover (two coplanar loops flip mutual
  // sign around one pin pitch of separation) |k| falls monotonically.
  const auto curve = ex_.coupling_vs_distance(ca_, cb_, Millimeters{30.0}, Millimeters{90.0}, 9);
  ASSERT_EQ(curve.size(), 9u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i].k, curve[i - 1].k) << "at " << curve[i].distance.raw();
  }
}

TEST_F(CouplingTest, FarFieldDipoleScaling) {
  // Two small loops far apart couple like dipoles: k ~ 1/d^3.
  const double k60 = std::fabs(ex_.coupling_at(ca_, cb_, Millimeters{60.0}));
  const double k120 = std::fabs(ex_.coupling_at(ca_, cb_, Millimeters{120.0}));
  EXPECT_NEAR(k60 / k120, 8.0, 2.0);  // cube law within near-field correction
}

TEST_F(CouplingTest, PerpendicularAxesDecouple) {
  const double k0 = std::fabs(ex_.coupling_at(ca_, cb_, Millimeters{20.0}, 0.0, 0.0));
  const double k90 = std::fabs(ex_.coupling_at(ca_, cb_, Millimeters{20.0}, 0.0, 90.0));
  EXPECT_LT(k90, 0.02 * k0);
}

TEST_F(CouplingTest, AngleSweepFollowsCosineShapeFarField) {
  // In the dipole regime the coupling of two in-plane loops follows
  // k(alpha) = k0 * cos(alpha) as one loop rotates - the physical basis of
  // the EMD = PEMD * cos(alpha) rule. Near field deviates, so test far.
  const auto sweep = ex_.coupling_vs_angle(ca_, cb_, Millimeters{60.0}, 7);
  ASSERT_EQ(sweep.size(), 7u);
  const double k0 = sweep.front().k;
  for (const auto& p : sweep) {
    const double cosv = std::cos(geom::deg_to_rad(p.angle_deg));
    EXPECT_NEAR(p.k, k0 * cosv, 0.25 * std::fabs(k0) + 1e-9)
        << "angle " << p.angle_deg;
  }
  EXPECT_NEAR(sweep.back().k, 0.0, 0.05 * std::fabs(k0));
}

TEST_F(CouplingTest, AngleSweepMagnitudeDropsToZeroAtNinety) {
  // Independent of distance regime, rotating one capacitor by 90 degrees
  // kills the coupling - the paper's Fig 6 placement rule.
  for (double d : {20.0, 30.0, 45.0}) {
    const auto sweep = ex_.coupling_vs_angle(ca_, cb_, Millimeters{d}, 4);
    EXPECT_LT(std::fabs(sweep.back().k), 0.05 * std::fabs(sweep.front().k) + 1e-9)
        << "d = " << d;
  }
}

TEST_F(CouplingTest, MinDistanceRuleBrackets) {
  const double pemd = ex_.min_distance_for_coupling(ca_, cb_, 0.01, Millimeters{5.0}, Millimeters{150.0}, Millimeters{0.1}).raw();
  EXPECT_GT(pemd, 5.0);
  EXPECT_LT(pemd, 150.0);
  // At the derived distance the coupling is at or below the threshold...
  EXPECT_LE(std::fabs(ex_.coupling_at(ca_, cb_, Millimeters{pemd})), 0.0105);
  // ...and just inside it is above.
  EXPECT_GT(std::fabs(ex_.coupling_at(ca_, cb_, Millimeters{pemd - 1.0})), 0.0095);
}

TEST_F(CouplingTest, MinDistanceEdgeCases) {
  // Threshold already met at the near end -> returns d_lo.
  EXPECT_DOUBLE_EQ(ex_.min_distance_for_coupling(ca_, cb_, 0.9, Millimeters{5.0}, Millimeters{100.0}).raw(), 5.0);
  // Impossible threshold -> returns d_hi.
  EXPECT_DOUBLE_EQ(ex_.min_distance_for_coupling(ca_, cb_, 1e-9, Millimeters{5.0}, Millimeters{40.0}).raw(), 40.0);
  EXPECT_THROW(ex_.min_distance_for_coupling(ca_, cb_, 0.0, Millimeters{5.0}, Millimeters{40.0}).raw(),
               std::invalid_argument);

  // A tolerance that cannot end the bisection, a threshold or bracket that
  // no comparison can order: rejected up front. A zero or negative `tol`
  // never ends a bracket whose edges are adjacent doubles, and a NaN fails
  // every comparison the search makes.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Millimeters lo{5.0}, hi{150.0};
  for (const double tol : {0.0, -1.0, nan, inf}) {
    EXPECT_THROW(ex_.min_distance_for_coupling(ca_, cb_, 0.01, lo, hi, Millimeters{tol}),
                 std::invalid_argument)
        << "tol " << tol;
  }
  for (const double k : {nan, inf, -0.01}) {
    EXPECT_THROW(ex_.min_distance_for_coupling(ca_, cb_, k, lo, hi), std::invalid_argument)
        << "k " << k;
  }
  for (const auto& [a, b] : {std::pair{nan, 150.0}, std::pair{5.0, nan}, std::pair{-inf, 150.0},
                             std::pair{5.0, inf}, std::pair{40.0, 40.0}}) {
    EXPECT_THROW(ex_.min_distance_for_coupling(ca_, cb_, 0.01, Millimeters{a}, Millimeters{b}),
                 std::invalid_argument)
        << a << " " << b;
  }
  const ModelPair null_pair{&ca_, nullptr};
  EXPECT_THROW(ex_.min_distances_for_coupling({&null_pair, 1}, 0.01, lo, hi),
               std::invalid_argument);

  // A positive tolerance below the bracket's double spacing ends once the
  // edges are adjacent doubles: the rule is the crossing to the last ulp.
  const Millimeters tiny{std::numeric_limits<double>::denorm_min()};
  const double pemd = ex_.min_distance_for_coupling(ca_, cb_, 0.01, lo, hi, tiny).raw();
  EXPECT_LE(std::fabs(ex_.coupling_at(ca_, cb_, Millimeters{pemd})), 0.01);
  EXPECT_GT(std::fabs(ex_.coupling_at(ca_, cb_, Millimeters{std::nextafter(pemd, 0.0)})), 0.01);
}

TEST_F(CouplingTest, LockstepSearchMatchesOneSearchPerPair) {
  // Pairs that close at different levels, plus a duplicate pair: the
  // lockstep search gives each the bits of its own search. In [15, 18] mm at
  // k = 0.01 the X-cap pair closes at d_hi, the coil pair at d_lo and the
  // tantalum pair mid-bracket.
  const ComponentFieldModel coil = bobbin_coil("L");
  const ComponentFieldModel tant = tantalum_capacitor("T");
  const std::vector<ModelPair> pairs = {
      {&ca_, &cb_}, {&coil, &ca_}, {&tant, &cb_}, {&ca_, &coil}, {&ca_, &cb_}};
  for (const auto& [lo, hi] : {std::pair{8.0, 60.0}, std::pair{15.0, 18.0}}) {
    for (const double k : {0.002, 0.01, 0.05}) {
      const CouplingExtractor lockstep;
      const std::vector<Millimeters> got = lockstep.min_distances_for_coupling(
          pairs, k, Millimeters{lo}, Millimeters{hi}, Millimeters{0.25});
      ASSERT_EQ(got.size(), pairs.size());
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        const CouplingExtractor single;
        const Millimeters want = single.min_distance_for_coupling(
            *pairs[p].first, *pairs[p].second, k, Millimeters{lo}, Millimeters{hi},
            Millimeters{0.25});
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[p].raw()),
                  std::bit_cast<std::uint64_t>(want.raw()))
            << "[" << lo << ", " << hi << "] k " << k << " pair " << p;
      }
      if (lo == 15.0 && k == 0.01) {
        EXPECT_EQ(got[0].raw(), hi);
        EXPECT_EQ(got[1].raw(), lo);
        EXPECT_GT(got[2].raw(), lo);
        EXPECT_LT(got[2].raw(), hi);
      }
    }
  }
  EXPECT_TRUE(CouplingExtractor{}.min_distances_for_coupling({}, 0.01, Millimeters{2.0},
                                                               Millimeters{200.0}).empty());
}

TEST(ComponentModels, FactoriesProduceSaneGeometry) {
  const auto tant = tantalum_capacitor("T1");
  EXPECT_EQ(tant.kind, ModelKind::kCapacitorLoop);
  EXPECT_EQ(tant.local_path.segments.size(), 4u);

  const auto coil = bobbin_coil("L1");
  EXPECT_EQ(coil.kind, ModelKind::kBobbinCoil);
  EXPECT_GT(coil.mu_eff, 1.0);
  EXPECT_EQ(coil.local_path.segments.size(), 5u * 12u);

  const auto choke2 = cm_choke("CM2");
  // A 3-winding choke under one phase pattern has two energized windings,
  // like the 2-winding one, but the geometry rotates with the phase.
  CmChokeParams p3;
  p3.n_windings = 3;
  p3.excitation_phase = 0;
  const auto choke3a = cm_choke("CM3A", p3);
  p3.excitation_phase = 1;
  const auto choke3b = cm_choke("CM3B", p3);
  EXPECT_EQ(choke3a.local_path.segments.size(), choke2.local_path.segments.size());
  EXPECT_FALSE(choke3a.local_path.segments[0].a ==
               choke3b.local_path.segments[0].a);
  EXPECT_THROW(cm_choke("bad", {.n_windings = 4}), std::invalid_argument);
}

TEST(ComponentModels, CoilToCapCouplingSensible) {
  const auto coil = bobbin_coil("L1");
  const auto cap = x_capacitor("C1");
  CouplingExtractor ex;
  const double k20 = std::fabs(ex.coupling_at(coil, cap, Millimeters{25.0}));
  EXPECT_GT(k20, 1e-4);
  EXPECT_LT(k20, 0.5);
  const double k60 = std::fabs(ex.coupling_at(coil, cap, Millimeters{60.0}));
  EXPECT_LT(k60, k20);
}

TEST(ComponentModels, TwoCoilsOfDifferentSizeCouple) {
  // The Fig 7 configuration: bobbin coils of different size.
  const auto small = bobbin_coil("S", {.radius = Millimeters{4.0}, .length = Millimeters{8.0}, .turns = 25});
  const auto big = bobbin_coil("B", {.radius = Millimeters{8.0}, .length = Millimeters{16.0}, .turns = 50});
  CouplingExtractor ex;
  double prev = 1.0;
  for (double d : {20.0, 30.0, 45.0, 65.0}) {
    const double k = std::fabs(ex.coupling_at(small, big, Millimeters{d}));
    EXPECT_LT(k, prev);
    prev = k;
  }
}

TEST(CouplingExtractor, NullModelThrows) {
  CouplingExtractor ex;
  const GroundedCouplingExtractor grounded(0.0);
  const PlacedModel bad{nullptr, {}};
  const ComponentFieldModel m = x_capacitor("C");
  const PlacedModel ok{&m, {}};
  EXPECT_THROW(ex.mutual(bad, ok).raw(), std::invalid_argument);
  // coupling_factor rejects it before reading a self term, on either side.
  EXPECT_THROW((void)ex.coupling_factor(bad, ok), std::invalid_argument);
  EXPECT_THROW((void)ex.coupling_factor(ok, bad), std::invalid_argument);
  EXPECT_THROW((void)grounded.coupling_factor(bad, ok), std::invalid_argument);
  EXPECT_THROW((void)grounded.coupling_factor(ok, bad), std::invalid_argument);
  const std::vector<PlacedModel> models = {ok, bad};
  const std::vector<IndexPair> with_null = {{0, 1}};
  EXPECT_THROW((void)ex.coupling_batch(models, with_null), std::invalid_argument);
  const std::vector<IndexPair> out_of_range = {{0, 2}};
  EXPECT_THROW((void)ex.coupling_batch(models, out_of_range), std::invalid_argument);
  // Nothing was extracted on the way to any of the throws.
  const ExtractionCacheStats st = ex.cache_stats();
  EXPECT_EQ(st.self_hits + st.self_misses + st.mutual_hits + st.mutual_misses, 0u);
}

}  // namespace
}  // namespace emi::peec
