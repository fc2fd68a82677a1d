// Bit pins of the coupling factor k = M / sqrt(La * Lb) at every entry point
// that reports one:
//   * coupling_at and the coupling_vs_distance / coupling_vs_angle sweeps,
//     for an X-cap pair and an X-cap beside the filter coil, with the exact
//     and the clustered extractor;
//   * the couplings circuit_with_couplings installs on the buck and boost
//     unfavorable layouts, with the extractor's hit and miss counts;
//   * the geometric ranking (emc::rank_geometric_coupling) of the 16-stage
//     grid, seed 1, exact and clustered.
// The tables were recorded before these entry points were moved onto
// CouplingExtractor::coupling_batch. Each batched entry must also equal the
// per-pair call it stands for (coupling_at, coupling_factor) bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/emi/sensitivity.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/coupling.hpp"

namespace emi::peec {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

KernelOptions kernel(bool clustered) {
  KernelOptions k;
  k.cluster = clustered;
  return k;
}

// coupling_at(a, b, 80 mm, 0, 30 deg); |k| of coupling_vs_distance(a, b,
// 20 mm, 110 mm, 4 points); k of coupling_vs_angle(a, b, 60 mm, 4 points).
struct CurvePins {
  bool coil;  // b is the filter coil, else the second X-cap
  bool clustered;
  std::uint64_t at;
  std::uint64_t distance[4];
  std::uint64_t angle[4];
};

// A closed loop's aggregated dipole moment is zero, so a pair whose root
// clusters pass the gate comes out as exactly 0 under clustering.
const CurvePins kCurvePins[] = {
    {false, false, 0xbf30fa81f453eb63ull,
     {0x3fae729b735e9968ull, 0x3f57ded924ae2e7dull, 0x3f346b38b5ee272full, 0x3f1e46dc73eb5dc0ull},
     {0xbf49cce1c5b05282ull, 0xbf44aa8ca73cdcabull, 0xbf34921c1b0746bfull, 0x0000000000000000ull}},
    {false, true, 0xbf30fa81f453eb63ull,
     {0x3fae729b735e9968ull, 0x3f57ded924ae2e7dull, 0x3f346b38b5ee272full, 0x0000000000000000ull},
     {0xbf49cce1c5b05282ull, 0xbf44aa8ca73cdcabull, 0xbf34921c1b0746bfull, 0x0000000000000000ull}},
    {true, false, 0xbf17a1565f78d12bull,
     {0x3f85872255bd159bull, 0x3f3d6fc656cd18c4ull, 0x3f1b3553ef43ec7aull, 0x3f0496ab397300c1ull},
     {0xbf30924d1d41e083ull, 0xbf2cdc600f948564ull, 0xbf20d1a38168d180ull, 0x3c1422ad121402c5ull}},
    {true, true, 0x0000000000000000ull,
     {0x3f85872255bd159bull, 0x3f3d6fc656cd18c4ull, 0x0000000000000000ull, 0x0000000000000000ull},
     {0xbf30924d1d41e083ull, 0xbf46c522ab84d0cfull, 0xbf43cc3835986f63ull, 0x3c1422ad121402c5ull}},
};

TEST(CouplingPins, CurvesAndPointsCarryPinnedBits) {
  const ComponentFieldModel cx1 = x_capacitor("CX1");
  const ComponentFieldModel cx2 = x_capacitor("CX2");
  const ComponentFieldModel lf = bobbin_coil("LF");
  for (const CurvePins& pin : kCurvePins) {
    const ComponentFieldModel& b = pin.coil ? lf : cx2;
    const std::string row = std::string(pin.coil ? "x-cap/coil" : "x-cap/x-cap") +
                            (pin.clustered ? " clustered" : " exact");
    const CouplingExtractor ex(QuadratureOptions{}, kernel(pin.clustered));
    EXPECT_EQ(bits(ex.coupling_at(cx1, b, Millimeters{80.0}, 0.0, 30.0)), pin.at) << row;
    const auto dist =
        ex.coupling_vs_distance(cx1, b, Millimeters{20.0}, Millimeters{110.0}, 4);
    const auto angle = ex.coupling_vs_angle(cx1, b, Millimeters{60.0}, 4);
    ASSERT_EQ(dist.size(), 4u);
    ASSERT_EQ(angle.size(), 4u);
    // Every sweep entry is coupling_at at its pose on a cold extractor.
    const CouplingExtractor per_point(QuadratureOptions{}, kernel(pin.clustered));
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(bits(dist[i].k), pin.distance[i]) << row << " distance " << i;
      EXPECT_EQ(bits(dist[i].k),
                bits(std::fabs(per_point.coupling_at(cx1, b, dist[i].distance))))
          << row << " distance " << i;
      EXPECT_EQ(bits(angle[i].k), pin.angle[i]) << row << " angle " << i;
      EXPECT_EQ(bits(angle[i].k),
                bits(per_point.coupling_at(cx1, b, Millimeters{60.0}, 0.0, angle[i].angle_deg)))
          << row << " angle " << i;
    }
  }
}

struct InstalledPin {
  const char* l1;
  const char* l2;
  std::uint64_t k;
};

const std::vector<InstalledPin> kBuckInstalled = {
    {"L_BUCK", "L_CE1", 0xbf53af309ae8eeddull}, {"L_BUCK", "L_CO", 0x3f703037b8957e1aull},
    {"L_BUCK", "L_CX1", 0xbf4fdae22e8fd2e1ull}, {"L_BUCK", "L_CX2", 0xbf4d698ba276bc3eull},
    {"L_BUCK", "L_LOOP", 0x3f5c57a8a6b09937ull}, {"L_CE1", "L_CO", 0x3f2d4fa5c605d797ull},
    {"L_CE1", "L_CX1", 0x3f32ff3aa1c9b3ceull},  {"L_CE1", "L_CX2", 0xbf74bbbf9a784eebull},
    {"L_CE1", "L_F", 0xbf3176d30e69d59bull},    {"L_CE1", "L_LOOP", 0x3f81452fefbd38fcull},
    {"L_CO", "L_CX2", 0xbf37f558217d751bull},   {"L_CO", "L_F", 0xbf304aaefea23640ull},
    {"L_CO", "L_LOOP", 0x3f38b0d19a306937ull},  {"L_CX1", "L_CX2", 0x3fa72a97df196dd3ull},
    {"L_CX1", "L_F", 0x3f6c6cfdb23f67faull},    {"L_CX1", "L_LOOP", 0xbf4b8432723e78b1ull},
    {"L_CX2", "L_F", 0x3f918c4d42132951ull},    {"L_CX2", "L_LOOP", 0x3f5f0b91181f4050ull},
    {"L_F", "L_LOOP", 0x3f2ca77e138beba5ull},
};

const std::vector<InstalledPin> kBoostInstalled = {
    {"L_BOOST", "L_CO", 0x3f72b0b06c0d8e89ull}, {"L_BOOST", "L_CX1", 0x3f621c53d078e29bull},
    {"L_BOOST", "L_CX2", 0x3f6303e0d6ccfe7dull}, {"L_BOOST", "L_D", 0x3f4f791b434515f7ull},
    {"L_BOOST", "L_F", 0xbf602f89eb84d832ull},  {"L_CO", "L_CX1", 0xbf7dfc5623c38882ull},
    {"L_CO", "L_CX2", 0xbf6b1ebd6847c345ull},   {"L_CO", "L_F", 0x3f30dff6ee12627full},
    {"L_CX1", "L_CX2", 0x3fb1e20b9df77104ull},  {"L_CX1", "L_F", 0x3f6d4737f5c9bf94ull},
    {"L_CX2", "L_F", 0x3f8affb383889de9ull},
};

TEST(CouplingPins, InstalledCouplingsMatchPerPairCouplingFactor) {
  struct Case {
    bool boost;
    const std::vector<InstalledPin>* pins;
    // Extractor counts of one cold installation: self hits/misses (two
    // lookups per pair), mutual hits/misses.
    std::uint64_t self_hits, self_misses, mutual_hits, mutual_misses;
  };
  for (const Case& c : {Case{false, &kBuckInstalled, 37, 5, 0, 21},
                        Case{true, &kBoostInstalled, 25, 5, 0, 15}}) {
    const flow::BuckConverter bc =
        c.boost ? flow::make_boost_converter() : flow::make_buck_converter();
    const place::Layout layout =
        c.boost ? flow::boost_layout_unfavorable(bc) : flow::layout_unfavorable(bc);
    const CouplingExtractor ex;
    const ckt::Circuit circuit = flow::circuit_with_couplings(bc, layout, ex);
    const auto& installed = circuit.couplings();
    ASSERT_EQ(installed.size(), c.pins->size()) << "boost " << c.boost;
    for (std::size_t i = 0; i < installed.size(); ++i) {
      EXPECT_EQ(circuit.inductors()[installed[i].l1].name, (*c.pins)[i].l1);
      EXPECT_EQ(circuit.inductors()[installed[i].l2].name, (*c.pins)[i].l2);
      EXPECT_EQ(bits(installed[i].k), (*c.pins)[i].k)
          << (*c.pins)[i].l1 << "/" << (*c.pins)[i].l2 << " boost " << c.boost;
    }
    const ExtractionCacheStats st = ex.cache_stats();
    EXPECT_EQ(st.self_hits, c.self_hits);
    EXPECT_EQ(st.self_misses, c.self_misses);
    EXPECT_EQ(st.mutual_hits, c.mutual_hits);
    EXPECT_EQ(st.mutual_misses, c.mutual_misses);

    // The same table from one coupling_factor call per inductor pair, on a
    // cold extractor, with circuit_with_couplings' filter and clamp.
    std::vector<std::string> names;
    for (const auto& [l, m] : bc.inductor_model) names.push_back(l);
    std::sort(names.begin(), names.end());
    const CouplingExtractor per_pair;
    std::vector<std::pair<std::string, double>> want;
    for (std::size_t i = 0; i < names.size(); ++i) {
      for (std::size_t j = i + 1; j < names.size(); ++j) {
        const ComponentFieldModel* ma = bc.model_for_inductor(names[i]);
        const ComponentFieldModel* mb = bc.model_for_inductor(names[j]);
        const double k = per_pair.coupling_factor({ma, flow::pose_of(bc, layout, ma->name)},
                                                  {mb, flow::pose_of(bc, layout, mb->name)});
        if (std::fabs(k) >= flow::kMinInstalledCoupling) {
          want.emplace_back(names[i] + "/" + names[j], std::clamp(k, -0.95, 0.95));
        }
      }
    }
    ASSERT_EQ(want.size(), installed.size()) << "boost " << c.boost;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(circuit.inductors()[installed[i].l1].name + "/" +
                    circuit.inductors()[installed[i].l2].name,
                want[i].first);
      EXPECT_EQ(bits(installed[i].k), bits(want[i].second)) << want[i].first;
    }
  }
}

// FNV-1a over every ranked entry in order: both names (each closed by a
// 0xff byte) and the bits of |k|.
std::uint64_t ranking_digest(const std::vector<emc::GeometricCoupling>& ranked) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto byte = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ull;
  };
  for (const emc::GeometricCoupling& g : ranked) {
    for (const std::string* s : {&g.inductor_a, &g.inductor_b}) {
      for (const char c : *s) byte(static_cast<unsigned char>(c));
      byte(0xff);
    }
    const std::uint64_t k = bits(g.k_abs);
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(k >> (8 * i)));
  }
  return h;
}

TEST(CouplingPins, GeometricRankingOfTheSixteenStageGrid) {
  flow::LargeScenarioOptions opt;
  opt.n_stages = 16;
  opt.seed = 1;
  const flow::LargeScenario s = flow::make_large_scenario(opt);
  struct Top {
    const char* a;
    const char* b;
    std::uint64_t k;
  };
  const Top top[] = {{"CX7", "LF7", 0x3f96ae65da06da21ull},
                     {"CX11", "LF11", 0x3f8a63f6c3a830e2ull},
                     {"CX2", "LF2", 0x3f8a441057372f09ull}};
  for (const bool clustered : {false, true}) {
    const CouplingExtractor ex(QuadratureOptions{}, kernel(clustered));
    const std::vector<emc::GeometricCoupling> ranked =
        emc::rank_geometric_coupling(ex, s.placed, s.names);
    ASSERT_EQ(ranked.size(), 496u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(ranked[i].inductor_a, top[i].a);
      EXPECT_EQ(ranked[i].inductor_b, top[i].b);
      EXPECT_EQ(bits(ranked[i].k_abs), top[i].k) << "entry " << i;
    }
    EXPECT_EQ(ranking_digest(ranked), clustered ? 0xfe463e85eaf2f9d4ull : 0x31c1ae924eaf9651ull)
        << "clustered " << clustered;
  }
}

}  // namespace
}  // namespace emi::peec
