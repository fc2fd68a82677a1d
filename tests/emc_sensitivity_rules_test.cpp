#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/thread_pool.hpp"
#include "src/emi/lisn.hpp"
#include "src/emi/rules.hpp"
#include "src/emi/sensitivity.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/coupling.hpp"

namespace emi::emc {
namespace {

// Pi filter testbed where coupling between the two capacitor ESLs is the
// known dominant path - the sensitivity analysis must find it.
ckt::Circuit pi_filter() {
  ckt::Circuit c;
  c.add_vsource("VB", "batt", "0", ckt::Waveform::dc(12.0));
  attach_lisn(c, "batt", "vin");
  c.add_inductor("L_C1", "vin", "c1a", 15e-9);
  c.add_resistor("R_C1", "c1a", "c1b", 0.03);
  c.add_capacitor("C_1", "c1b", "0", 1.5e-6);
  c.add_inductor("L_FLT", "vin", "nn", 47e-6);
  c.add_capacitor("C_PAR", "vin", "nn", 15e-12);
  c.add_resistor("R_DMP", "vin", "nn", 15e3);
  c.add_inductor("L_C2", "nn", "c2a", 15e-9);
  c.add_resistor("R_C2", "c2a", "c2b", 0.03);
  c.add_capacitor("C_2", "c2b", "0", 1.5e-6);
  c.add_vsource("VN", "nz", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_inductor("L_SRC", "nz", "nn", 20e-9);
  return c;
}

TrapezoidSpectrum ref_noise() {
  const double period = 1.0 / 300e3;
  return spectrum_params(ckt::Waveform::trapezoid(0.0, 12.0, period, 30e-9,
                                                  0.42 * period - 30e-9, 30e-9));
}

TEST(Sensitivity, RanksCapEslCouplingOnTop) {
  SensitivityOptions opt;
  opt.sweep.n_points = 40;
  opt.candidates = {"L_C1", "L_C2", "L_SRC", "L_FLT"};
  const auto ranked = rank_coupling_sensitivity(pi_filter(), "LISN_meas", ref_noise(),
                                                opt);
  ASSERT_EQ(ranked.size(), 6u);  // 4 choose 2
  // Ranking is sorted descending.
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].max_delta_db, ranked[i].max_delta_db);
  }
  // The filter-bypassing pairs involving L_C1 dominate; the top pair must
  // couple the LISN-side capacitor to the noisy side.
  EXPECT_EQ(ranked.front().inductor_a < ranked.front().inductor_b
                ? ranked.front().inductor_a
                : ranked.front().inductor_b,
            "L_C1");
  EXPECT_GT(ranked.front().max_delta_db, 20.0);
  // Every entry reports nonnegative impact and mean <= max.
  for (const auto& s : ranked) {
    EXPECT_GE(s.max_delta_db, 0.0);
    EXPECT_LE(s.mean_delta_db, s.max_delta_db + 1e-12);
  }
}

TEST(Sensitivity, DefaultsToAllInductors) {
  SensitivityOptions opt;
  opt.sweep.n_points = 10;
  ckt::Circuit c;
  c.add_vsource("VN", "in", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_inductor("LA", "in", "m", 1e-6);
  c.add_inductor("LB", "m", "out", 1e-6);
  c.add_resistor("RL", "out", "0", 50.0);
  const auto ranked = rank_coupling_sensitivity(c, "out", ref_noise(), opt);
  EXPECT_EQ(ranked.size(), 1u);
}

TEST(Sensitivity, ExistingCouplingsRestored) {
  ckt::Circuit c = pi_filter();
  c.add_coupling("K0", "L_C1", "L_C2", 0.02);
  SensitivityOptions opt;
  opt.sweep.n_points = 10;
  opt.candidates = {"L_C1", "L_C2"};
  rank_coupling_sensitivity(c, "LISN_meas", ref_noise(), opt);
  // The input circuit is taken by value; the original keeps its coupling.
  ASSERT_EQ(c.couplings().size(), 1u);
  EXPECT_DOUBLE_EQ(c.couplings()[0].k, 0.02);
}

TEST(Sensitivity, SignificantPairsFilter) {
  std::vector<CouplingSensitivity> ranked = {
      {"A", "B", 30.0, 10.0}, {"A", "C", 5.0, 1.0}, {"B", "C", 0.5, 0.1}};
  const auto sig = significant_pairs(ranked, 1.0);
  ASSERT_EQ(sig.size(), 2u);
  EXPECT_EQ(sig[1].inductor_b, "C");
}

TEST(Rules, EffectiveMinDistanceCosLaw) {
  EXPECT_DOUBLE_EQ(effective_min_distance(Millimeters{20.0}, 0.0).raw(), 20.0);
  EXPECT_NEAR(effective_min_distance(Millimeters{20.0}, 60.0).raw(), 10.0, 1e-12);
  EXPECT_NEAR(effective_min_distance(Millimeters{20.0}, 90.0).raw(), 0.0, 1e-12);
  // Axis folding: 180 deg is the same axis, 120 folds to 60.
  EXPECT_DOUBLE_EQ(effective_min_distance(Millimeters{20.0}, 180.0).raw(), 20.0);
  EXPECT_NEAR(effective_min_distance(Millimeters{20.0}, 120.0).raw(), 10.0, 1e-12);
}

TEST(Rules, DeriverProducesOrderedRuleTable) {
  const peec::ComponentFieldModel c1 = peec::x_capacitor("C1");
  const peec::ComponentFieldModel c2 = peec::x_capacitor("C2");
  const peec::ComponentFieldModel lf = peec::bobbin_coil("LF");
  const peec::CouplingExtractor ex;
  const RuleDeriver deriver(ex);

  const MinDistanceRule r = deriver.derive(c1, c2);
  EXPECT_EQ(r.comp_a, "C1");
  EXPECT_EQ(r.comp_b, "C2");
  EXPECT_GT(r.pemd.raw(), 5.0);
  EXPECT_LT(r.pemd.raw(), 100.0);
  EXPECT_DOUBLE_EQ(r.k_threshold, 0.01);

  const auto all = deriver.derive_all({&c1, &c2, &lf});
  EXPECT_EQ(all.size(), 3u);  // 3 choose 2
}

TEST(Rules, StricterThresholdLargerDistance) {
  const peec::ComponentFieldModel c1 = peec::x_capacitor("C1");
  const peec::ComponentFieldModel c2 = peec::x_capacitor("C2");
  const peec::CouplingExtractor ex;
  const RuleDeriver loose(ex, {0.05, Millimeters{2.0}, Millimeters{200.0}, Millimeters{0.25}});
  const RuleDeriver strict(ex, {0.005, Millimeters{2.0}, Millimeters{200.0}, Millimeters{0.25}});
  EXPECT_GT(strict.derive(c1, c2).pemd.raw(), loose.derive(c1, c2).pemd.raw());
}

TEST(GeometricCoupling, RanksCloseParallelPairFirst) {
  const peec::ComponentFieldModel cx1 = peec::x_capacitor("CX1");
  const peec::ComponentFieldModel cx2 = peec::x_capacitor("CX2");
  const peec::ComponentFieldModel cx3 = peec::x_capacitor("CX3");
  const std::vector<peec::PlacedModel> models = {
      {&cx1, {{0.0, 0.0, 0.0}, 0.0}},
      {&cx2, {{18.0, 0.0, 0.0}, 0.0}},   // close, parallel: strong pair
      {&cx3, {{90.0, 60.0, 0.0}, 0.0}},  // far away: weak against both
  };
  const std::vector<std::string> names = {"L_C1", "L_C2", "L_C3"};
  const peec::CouplingExtractor ex;
  const std::vector<GeometricCoupling> ranked =
      rank_geometric_coupling(ex, models, names);
  ASSERT_EQ(ranked.size(), 3u);  // n(n-1)/2
  EXPECT_EQ(ranked[0].inductor_a, "L_C1");
  EXPECT_EQ(ranked[0].inductor_b, "L_C2");
  EXPECT_GT(ranked[0].k_abs, ranked[1].k_abs);
  EXPECT_GT(ranked[0].k_abs, 0.0);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].k_abs, ranked[i].k_abs);  // sorted descending
  }
  // |k| matches the extractor's own per-pair coupling factor.
  EXPECT_NEAR(ranked[0].k_abs, std::fabs(ex.coupling_factor(models[0], models[1])),
              1e-15);
}

TEST(GeometricCoupling, ValidatesAndHandlesDegenerateInput) {
  const peec::ComponentFieldModel cx1 = peec::x_capacitor("CX1");
  const std::vector<peec::PlacedModel> one = {{&cx1, {{0.0, 0.0, 0.0}, 0.0}}};
  const std::vector<std::string> one_name = {"L_C1"};
  const peec::CouplingExtractor ex;
  EXPECT_TRUE(rank_geometric_coupling(ex, one, one_name).empty());
  const std::vector<std::string> wrong = {"A", "B"};
  EXPECT_THROW((void)rank_geometric_coupling(ex, one, wrong),
               std::invalid_argument);
}


// The ranking rank_geometric_coupling promises, by a plain std::sort on the
// names themselves (|k| descending, then name a, then name b), from a fresh
// extractor's matrix under `kopt`.
std::vector<GeometricCoupling> sorted_on_names(std::span<const peec::PlacedModel> models,
                                               std::span<const std::string> names,
                                               const peec::KernelOptions& kopt) {
  const peec::CouplingExtractor ex(peec::QuadratureOptions{}, kopt);
  const std::vector<units::Henry> m = ex.mutual_matrix(models);
  const std::size_t n = models.size();
  std::vector<GeometricCoupling> want;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      want.push_back({names[i], names[j],
                      std::fabs(peec::coupling_ratio(m[i * n + j], m[i * n + i], m[j * n + j]))});
    }
  }
  std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    if (a.k_abs != b.k_abs) return a.k_abs > b.k_abs;
    if (a.inductor_a != b.inductor_a) return a.inductor_a < b.inductor_a;
    return a.inductor_b < b.inductor_b;
  });
  return want;
}

std::size_t zero_entries(const std::vector<GeometricCoupling>& ranked) {
  return static_cast<std::size_t>(std::count_if(
      ranked.begin(), ranked.end(), [](const GeometricCoupling& g) { return g.k_abs == 0.0; }));
}

void expect_same_ranking(const std::vector<GeometricCoupling>& got,
                         const std::vector<GeometricCoupling>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(got[e].inductor_a, want[e].inductor_a) << where << " entry " << e;
    EXPECT_EQ(got[e].inductor_b, want[e].inductor_b) << where << " entry " << e;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[e].k_abs),
              std::bit_cast<std::uint64_t>(want[e].k_abs))
        << where << " entry " << e;
  }
}

// The ranking's integer-key sort against the order of a sort on the names
// themselves (|k| descending, then name a, then name b): far-apart X
// capacitors under the clustered kernel tie at k = 0, two names repeat, and
// the names' order differs from their indices'. Entry by entry, names and
// k bits match.
TEST(GeometricCoupling, IntegerKeySortMatchesTheNameOrder) {
  std::vector<peec::ComponentFieldModel> caps;
  for (int c = 0; c < 7; ++c) caps.push_back(peec::x_capacitor("C" + std::to_string(c)));
  const std::vector<peec::PlacedModel> models = {
      {&caps[0], {{0.0, 0.0, 0.0}, 0.0}},     {&caps[1], {{18.0, 0.0, 0.0}, 0.0}},
      {&caps[2], {{400.0, 0.0, 0.0}, 0.0}},   {&caps[3], {{0.0, 400.0, 0.0}, 90.0}},
      {&caps[4], {{400.0, 400.0, 0.0}, 0.0}}, {&caps[5], {{-400.0, 0.0, 0.0}, 30.0}},
      {&caps[6], {{9.0, 20.0, 0.0}, 0.0}},
  };
  const std::vector<std::string> names = {"Z9", "B2", "L_C1", "B2", "A", "Z9", "M"};
  peec::KernelOptions kopt;
  kopt.cluster = true;
  const peec::CouplingExtractor ex(peec::QuadratureOptions{}, kopt);
  const std::vector<GeometricCoupling> ranked = rank_geometric_coupling(ex, models, names);
  const std::vector<GeometricCoupling> want = sorted_on_names(models, names, kopt);
  ASSERT_GE(zero_entries(want), 4u);  // ties at 0 reach the name keys
  expect_same_ranking(ranked, want, "7 models");
}

// A ranking of more than a thousand entries (48 X capacitors, 1,128 pairs)
// against the plain sort, whole, at 1, 2 and 4 lanes: the build, block sort
// and emit regions split it into chunks, the block merges meet runs of
// zero-k ties (far pairs under the clustered kernel), and repeated names
// reach the name keys.
TEST(GeometricCoupling, BoardSizedRankingMatchesThePlainSortAtEveryLaneCount) {
  constexpr int kModels = 48;
  std::vector<peec::ComponentFieldModel> caps;
  caps.reserve(kModels);
  std::vector<peec::PlacedModel> models;
  std::vector<std::string> names;
  for (int c = 0; c < kModels; ++c) {
    caps.push_back(peec::x_capacitor("C" + std::to_string(c)));
    // An 8 x 6 grid whose spacing grows with the column, so close, middling
    // and far pairs all occur, each part nudged so that few pairs share a
    // relative pose; every fifth part is turned.
    const double x = 6.0 * (c % 8) * (c % 8) + 0.25 * c;
    const double y = 35.0 * (c / 8) + 0.5 * (c % 3);
    models.push_back({&caps.back(), {{x, y, 0.0}, c % 5 == 0 ? 90.0 : 0.0}});
    names.push_back("C" + std::to_string((37 * c) % 41));  // repeats, out of index order
  }
  peec::KernelOptions kopt;
  kopt.cluster = true;
  const std::vector<GeometricCoupling> want = sorted_on_names(models, names, kopt);
  ASSERT_EQ(want.size(), 1128u);
  ASSERT_GE(zero_entries(want), 10u);
  const std::size_t lanes0 = core::ThreadPool::global_thread_count();
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    const peec::CouplingExtractor ex(peec::QuadratureOptions{}, kopt);
    expect_same_ranking(rank_geometric_coupling(ex, models, names), want,
                        "lanes " + std::to_string(lanes));
  }
  core::ThreadPool::set_global_thread_count(lanes0);
}

}  // namespace
}  // namespace emi::emc
