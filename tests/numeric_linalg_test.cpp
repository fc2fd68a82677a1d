#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fault_injection.hpp"
#include "src/core/status.hpp"
#include "src/numeric/band_lu.hpp"
#include "src/numeric/lu.hpp"
#include "src/numeric/matrix.hpp"
#include "src/numeric/rng.hpp"

namespace emi::num {
namespace {

TEST(Matrix, IdentityAndMultiply) {
  MatrixD a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const MatrixD i3 = MatrixD::identity(3);
  EXPECT_EQ(a * i3, a);
  const std::vector<double> v{1.0, 0.0, -1.0};
  const std::vector<double> av = a * v;
  EXPECT_DOUBLE_EQ(av[0], -2.0);
  EXPECT_DOUBLE_EQ(av[1], -2.0);
}

TEST(Lu, Solves2x2) {
  MatrixD a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const auto x = try_solve(a, {5.0, 10.0}).value();  // raises on failure
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  MatrixD a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const auto x = try_solve(a, {2.0, 3.0}).value();
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, RejectsSingular) {
  MatrixD a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_EQ(try_solve(a, {1.0, 2.0}).status().code(), core::ErrorCode::kSingular);
}

TEST(Lu, RejectsNonSquare) {
  EXPECT_EQ(Lu<double>::factor(MatrixD(2, 3)).status().code(),
            core::ErrorCode::kInvalidArgument);
}

TEST(Lu, RejectsRightHandSideOfWrongSize) {
  const core::Result<Lu<double>> lu = Lu<double>::factor(MatrixD::identity(2));
  ASSERT_TRUE(lu.ok());
  EXPECT_EQ(lu.value().try_solve({1.0}).status().code(),
            core::ErrorCode::kInvalidArgument);
}

TEST(Lu, ComplexSystem) {
  using C = Complex;
  MatrixC a(2, 2);
  a(0, 0) = C{1, 1};
  a(0, 1) = C{0, 0};
  a(1, 0) = C{0, 0};
  a(1, 1) = C{0, 2};
  const auto x = try_solve(a, {C{2, 0}, C{4, 0}}).value();
  EXPECT_NEAR(std::abs(x[0] - C{1, -1}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - C{0, -2}), 0.0, 1e-12);
}

TEST(Inverse, RoundTrip) {
  MatrixD a(3, 3);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 2;
  a(1, 1) = 3;
  a(1, 2) = 1;
  a(2, 1) = 1;
  a(2, 2) = 5;
  // Inverse column by column from one factorization.
  const core::Result<Lu<double>> lu = Lu<double>::factor(a);
  ASSERT_TRUE(lu.ok());
  MatrixD inv(3, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<double> e(3, 0.0);
    e[c] = 1.0;
    const core::Result<std::vector<double>> col = lu.value().try_solve(e);
    ASSERT_TRUE(col.ok());
    for (std::size_t r = 0; r < 3; ++r) inv(r, c) = col.value()[r];
  }
  const MatrixD prod = a * inv;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-10);
    }
  }
}

// Property: random well-conditioned systems solve to residual ~0.
class RandomSolve : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomSolve, ResidualSmall) {
  const std::size_t n = GetParam();
  Rng rng(1234 + n);
  MatrixD a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);  // diagonal dominance
  }
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-10.0, 10.0);
  const auto x = try_solve(a, b).value();
  const auto ax = a * x;
  for (std::size_t r = 0; r < n; ++r) EXPECT_NEAR(ax[r], b[r], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomSolve, ::testing::Values(1, 2, 5, 10, 30, 80));

TEST(LuStatus, FactorReportsSingularWithColumn) {
  MatrixD a(2, 2);  // rank 1
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  const core::Result<Lu<double>> lu = Lu<double>::factor(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), core::ErrorCode::kSingular);
  EXPECT_EQ(lu.status().stage(), "numeric.lu");
  EXPECT_NE(lu.status().message().find("column 1"), std::string::npos)
      << lu.status().to_string();
  // The one-call try_solve reports the same code.
  const core::Result<std::vector<double>> x = try_solve(a, {1.0, 2.0});
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), core::ErrorCode::kSingular);
}

TEST(LuStatus, NearSingularPivotGivesLargeConditionEstimate) {
  MatrixD a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1e-14;
  // Default threshold (1e-300): factorizes, but the pivot-ratio estimate
  // exposes how close to singular the system is.
  const core::Result<Lu<double>> lu = Lu<double>::factor(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_GE(lu.value().condition_estimate(), 1e13);
  EXPECT_TRUE(lu.value().try_solve({1.0, 1.0}).ok());
}

TEST(LuStatus, PivotThresholdFlagsNearSingular) {
  MatrixD a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1e-14;
  const core::Result<Lu<double>> lu = Lu<double>::factor(a, {1e-10});
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), core::ErrorCode::kSingular);
  EXPECT_EQ(lu.status().stage(), "numeric.lu");
}

TEST(LuStatus, InjectedLuFaultReportsInjectedFault) {
  struct Guard {
    ~Guard() { core::FaultInjector::instance().disarm(); }
  } guard;
  core::FaultInjector::instance().configure(core::FaultSite::kLu, 1.0, 42);

  const MatrixD a = MatrixD::identity(3);
  const core::Result<Lu<double>> lu = Lu<double>::factor(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), core::ErrorCode::kInjectedFault);
  EXPECT_NE(lu.status().message().find("EMI_FAULT_INJECT"), std::string::npos);
  EXPECT_GT(core::FaultInjector::instance().fired(core::FaultSite::kLu), 0u);

  core::FaultInjector::instance().disarm();
  EXPECT_TRUE(Lu<double>::factor(a).ok());
}

// --- Banded LU -------------------------------------------------------------

// A random complex system with a band (2 sub-, 3 superdiagonals) hidden
// under a random symmetric permutation: entry (perm[i], perm[j]) is entry
// (i, j) of the banded matrix. Every fifth diagonal entry is small, so
// partial pivoting swaps rows; the rest keep the system well conditioned.
struct HiddenBand {
  std::size_t n = 0;
  std::vector<std::pair<std::size_t, std::size_t>> entries;
  std::vector<Complex> values;  // parallel to entries

  MatrixC dense() const {
    MatrixC a(n, n);
    for (std::size_t k = 0; k < entries.size(); ++k) {
      a(entries[k].first, entries[k].second) = values[k];
    }
    return a;
  }
  BandMatrix<Complex> band(std::shared_ptr<const BandOrdering> ord) const {
    BandMatrix<Complex> a(std::move(ord));
    for (std::size_t k = 0; k < entries.size(); ++k) {
      a(entries[k].first, entries[k].second) = values[k];
    }
    return a;
  }
  std::shared_ptr<const BandOrdering> ordering() const {
    return std::make_shared<const BandOrdering>(rcm_ordering(n, entries));
  }
  // Scale every entry of column `c` (caller's order) by `f`.
  void scale_column(std::size_t c, double f) {
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (entries[k].second == c) values[k] *= f;
    }
  }
};

HiddenBand hidden_band(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  HiddenBand h;
  h.n = n;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i >= 2 ? i - 2 : 0; j <= std::min(n - 1, i + 3); ++j) {
      Complex v{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      if (i == j) v = i % 5 == 0 ? 0.01 * v : v + Complex{4.0, 0.0};
      h.entries.emplace_back(perm[i], perm[j]);
      h.values.push_back(v);
    }
  }
  return h;
}

std::vector<Complex> random_rhs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> b(n);
  for (Complex& v : b) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return b;
}

TEST(RcmOrdering, RecoversAHiddenBandAsAPermutation) {
  const HiddenBand h = hidden_band(387, 11);
  const BandOrdering o = rcm_ordering(h.n, h.entries);
  ASSERT_EQ(o.size(), h.n);
  for (std::size_t k = 0; k < h.n; ++k) EXPECT_EQ(o.pos[o.order[k]], k);
  // The hidden band's symmetrized half-width is 3; RCM finds it again.
  EXPECT_LE(std::max(o.kl, o.ku), 3u);
  EXPECT_TRUE(band_pays(o));
}

TEST(RcmOrdering, IsAPureFunctionOfThePattern) {
  const HiddenBand h = hidden_band(64, 5);
  std::vector<std::pair<std::size_t, std::size_t>> shuffled = h.entries;
  std::reverse(shuffled.begin(), shuffled.end());
  const BandOrdering a = rcm_ordering(h.n, h.entries);
  const BandOrdering b = rcm_ordering(h.n, shuffled);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.kl, b.kl);
  EXPECT_EQ(a.ku, b.ku);
}

TEST(RcmOrdering, OrdersEveryComponent) {
  // Two chains (0-2-4, 1-3) and an isolated unknown 5.
  const std::vector<std::pair<std::size_t, std::size_t>> e = {
      {0, 2}, {2, 0}, {2, 4}, {4, 2}, {1, 3}, {3, 1}, {5, 5}, {0, 0}};
  const BandOrdering o = rcm_ordering(6, e);
  std::vector<std::size_t> sorted = o.order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(o.kl, 1u);
  EXPECT_EQ(o.ku, 1u);
}

class BandSolve : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BandSolve, MatchesDenseUnderAHiddenPermutation) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const HiddenBand h = hidden_band(n, seed);
    const std::vector<Complex> b = random_rhs(n, seed + 100);
    const core::Result<BandLu<Complex>> band =
        BandLu<Complex>::factor(h.band(h.ordering()));
    const core::Result<Lu<Complex>> dense = Lu<Complex>::factor(h.dense());
    ASSERT_TRUE(band.ok()) << band.status().to_string();
    ASSERT_TRUE(dense.ok()) << dense.status().to_string();
    EXPECT_GE(band.value().condition_estimate(), 1.0);
    const std::vector<Complex> xb = band.value().try_solve(b).value();
    const std::vector<Complex> xd = dense.value().try_solve(b).value();
    double diff = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      diff += std::norm(xb[i] - xd[i]);
      norm += std::norm(xd[i]);
    }
    EXPECT_LE(std::sqrt(diff), 1e-12 * std::sqrt(norm)) << "n " << n << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BandSolve, ::testing::Values(64, 387, 1539));

TEST(BandLu, ZeroPivotIsSingularNamingTheUnknown) {
  HiddenBand h = hidden_band(64, 3);
  const std::size_t u = 37;
  h.scale_column(u, 0.0);
  const core::Result<BandLu<Complex>> band = BandLu<Complex>::factor(h.band(h.ordering()));
  ASSERT_FALSE(band.ok());
  EXPECT_EQ(band.status().code(), core::ErrorCode::kSingular);
  EXPECT_EQ(band.status().stage(), "numeric.lu");
  EXPECT_NE(band.status().message().find("column " + std::to_string(u) + " "),
            std::string::npos)
      << band.status().to_string();
  // The dense path names the same unknown.
  const core::Result<Lu<Complex>> dense = Lu<Complex>::factor(h.dense());
  ASSERT_FALSE(dense.ok());
  EXPECT_EQ(dense.status().message(), band.status().message());
}

TEST(BandLu, PivotThresholdFlagsNearSingular) {
  HiddenBand h = hidden_band(64, 4);
  h.scale_column(20, 1e-14);
  // Default threshold: factorizes, and the estimate shows the tiny pivot.
  const core::Result<BandLu<Complex>> loose = BandLu<Complex>::factor(h.band(h.ordering()));
  ASSERT_TRUE(loose.ok());
  EXPECT_GE(loose.value().condition_estimate(), 1e10);
  const core::Result<BandLu<Complex>> strict =
      BandLu<Complex>::factor(h.band(h.ordering()), {1e-10});
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), core::ErrorCode::kSingular);
  EXPECT_EQ(strict.status().stage(), "numeric.lu");
}

TEST(BandLu, RejectsRightHandSideOfWrongSize) {
  const HiddenBand h = hidden_band(64, 6);
  const core::Result<BandLu<Complex>> lu = BandLu<Complex>::factor(h.band(h.ordering()));
  ASSERT_TRUE(lu.ok());
  const core::Result<std::vector<Complex>> x = lu.value().try_solve(random_rhs(65, 1));
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), core::ErrorCode::kInvalidArgument);
  EXPECT_EQ(x.status().stage(), "numeric.lu");
}

TEST(BandLu, InjectedLuFaultsHitTheSameMatricesAsDense) {
  struct Guard {
    ~Guard() { core::FaultInjector::instance().disarm(); }
  } guard;
  core::FaultInjector::instance().configure(core::FaultSite::kLu, 0.5, 42);
  std::size_t fired = 0;
  constexpr std::uint64_t kSystems = 16;
  for (std::uint64_t seed = 1; seed <= kSystems; ++seed) {
    const HiddenBand h = hidden_band(64, seed);
    const core::Result<BandLu<Complex>> band = BandLu<Complex>::factor(h.band(h.ordering()));
    const core::Result<Lu<Complex>> dense = Lu<Complex>::factor(h.dense());
    ASSERT_EQ(band.ok(), dense.ok()) << "seed " << seed;
    if (!band.ok()) {
      ++fired;
      EXPECT_EQ(band.status().code(), core::ErrorCode::kInjectedFault);
      EXPECT_EQ(dense.status().code(), core::ErrorCode::kInjectedFault);
    }
  }
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, kSystems);
}

TEST(Rng, DeterministicAndUniform) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = c.uniform();
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_GE(lo, 0.0);
  EXPECT_LT(hi, 1.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(99);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.05);
}

TEST(Rng, BelowRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
}

}  // namespace
}  // namespace emi::num
