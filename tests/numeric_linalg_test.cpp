#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
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

// --- Resumed LU ------------------------------------------------------------

bool same_bits(const Complex& a, const Complex& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// A random dense complex system. Rows 1, 4, 7, ... are zero in the first
// three columns off the diagonal, so the first steps meet exact-zero
// multipliers, which the elimination and the column replay both skip.
MatrixC random_dense(std::size_t n, Rng& rng) {
  MatrixC a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }
  for (std::size_t r = 1; r < n; r += 3) {
    for (std::size_t c = 0; c < std::min<std::size_t>(3, n); ++c) {
      if (r != c) a(r, c) = Complex{};
    }
  }
  return a;
}

std::vector<Complex> column(const MatrixC& a, std::size_t c) {
  std::vector<Complex> v(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) v[r] = a(r, c);
  return v;
}

// Factors, pivot order, condition estimate and a solution, all bitwise.
void expect_same_factorization(const Lu<Complex>& got, const Lu<Complex>& want,
                               const std::vector<Complex>& rhs) {
  const std::size_t n = want.size();
  ASSERT_EQ(got.size(), n);
  std::size_t differing = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      differing += !same_bits(got.factors()(r, c), want.factors()(r, c));
    }
  }
  EXPECT_EQ(differing, 0u) << "n " << n;
  EXPECT_EQ(got.perm(), want.perm());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.condition_estimate()),
            std::bit_cast<std::uint64_t>(want.condition_estimate()));
  const std::vector<Complex> x = got.try_solve(rhs).value();
  const std::vector<Complex> y = want.try_solve(rhs).value();
  for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(same_bits(x[i], y[i])) << "x[" << i << "]";
}

// b differs from a only in columns >= m, so a's state after m steps, with
// those columns replaced, resumes into b's factorization.
TEST(LuResume, ResumedFactorizationEqualsFullBitForBit) {
  Rng rng(20261019);
  std::size_t zero_multipliers = 0;
  for (std::size_t n = 5; n <= 40; n += 5) {
    for (const std::size_t m : {std::size_t{0}, std::size_t{1}, n / 2, n - 1}) {
      const MatrixC a = random_dense(n, rng);
      MatrixC b = a;
      std::vector<std::size_t> cols;
      for (std::size_t c = m; c < n; ++c) {
        if (c == m || c == n - 1 || (c - m) % 3 == 0) cols.push_back(c);
      }
      for (const std::size_t c : cols) {
        for (std::size_t r = 0; r < n; ++r) {
          b(r, c) += Complex{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
        }
      }
      core::Result<Lu<Complex>> resumed = Lu<Complex>::start(a);
      ASSERT_TRUE(resumed.ok());
      ASSERT_TRUE(resumed.value().advance(m).ok());
      EXPECT_EQ(resumed.value().steps(), m);
      for (const std::size_t c : cols) resumed.value().replace_column(c, column(b, c));
      ASSERT_TRUE(resumed.value().advance(n).ok());
      const core::Result<Lu<Complex>> full = Lu<Complex>::factor(b);
      ASSERT_TRUE(full.ok());
      expect_same_factorization(resumed.value(), full.value(), random_rhs(n, n + m));
      for (std::size_t r = 1; r < n; ++r) {
        zero_multipliers += full.value().factors()(r, 0) == Complex{};
      }
    }
  }
  EXPECT_GT(zero_multipliers, 0u);
}

TEST(LuResume, SingularPivotBeforeOrAfterTheResumeStepFailsLikeAFullFactorization) {
  Rng rng(7);
  constexpr std::size_t n = 12;
  constexpr std::size_t m = 6;
  {
    // Both matrices are singular at column 3, a step the resume shares.
    MatrixC a = random_dense(n, rng);
    for (std::size_t r = 0; r < n; ++r) a(r, 3) = Complex{};
    MatrixC b = a;
    for (std::size_t r = 0; r < n; ++r) b(r, m + 2) += Complex{0.25, -0.5};
    core::Result<Lu<Complex>> resumed = Lu<Complex>::start(a);
    ASSERT_TRUE(resumed.ok());
    const core::Status st = resumed.value().advance(m);
    const core::Result<Lu<Complex>> full = Lu<Complex>::factor(b);
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(st, full.status());
    EXPECT_EQ(st.code(), core::ErrorCode::kSingular);
    EXPECT_NE(st.message().find("column 3"), std::string::npos) << st.to_string();
    // The state stays at the failing step, so a later call fails the same way.
    EXPECT_EQ(resumed.value().steps(), 3u);
    EXPECT_EQ(resumed.value().advance(n), full.status());
    EXPECT_FALSE(resumed.value().try_solve(std::vector<Complex>(n)).ok());
  }
  {
    // Only the resumed matrix is singular, at a column past the resume step.
    const MatrixC a = random_dense(n, rng);
    MatrixC b = a;
    for (std::size_t r = 0; r < n; ++r) b(r, m + 2) = Complex{};
    core::Result<Lu<Complex>> resumed = Lu<Complex>::start(a);
    ASSERT_TRUE(resumed.ok());
    ASSERT_TRUE(resumed.value().advance(m).ok());
    resumed.value().replace_column(m + 2, column(b, m + 2));
    const core::Status st = resumed.value().advance(n);
    const core::Result<Lu<Complex>> full = Lu<Complex>::factor(b);
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(st, full.status());
    EXPECT_NE(st.message().find("column 8"), std::string::npos) << st.to_string();
    EXPECT_TRUE(Lu<Complex>::factor(a).ok());
  }
}

// The lu site draws on the diagonal, so a matrix that differs off the
// diagonal draws what the matrix it resumes from drew.
TEST(LuResume, ArmedLuSiteFailsAResumedMatrixAsItsFullFactorization) {
  struct Guard {
    ~Guard() { core::FaultInjector::instance().disarm(); }
  } guard;
  core::FaultInjector::instance().configure(core::FaultSite::kLu, 0.5, 42);
  Rng rng(99);
  constexpr std::size_t n = 8;
  constexpr std::size_t m = 3;
  int fired = 0;
  int clean = 0;
  for (int trial = 0; trial < 16; ++trial) {
    const MatrixC a = random_dense(n, rng);
    MatrixC b = a;
    for (std::size_t c = m; c < n; ++c) {
      for (std::size_t r = 0; r < n; ++r) {
        if (r != c) b(r, c) += Complex{rng.uniform(-0.5, 0.5), 0.0};
      }
    }
    core::Result<Lu<Complex>> resumed = Lu<Complex>::start(a);
    const core::Result<Lu<Complex>> full = Lu<Complex>::factor(b);
    ASSERT_EQ(resumed.ok(), full.ok()) << "trial " << trial;
    if (!full.ok()) {
      ++fired;
      EXPECT_EQ(resumed.status(), full.status());
      EXPECT_EQ(full.status().code(), core::ErrorCode::kInjectedFault);
      continue;
    }
    ++clean;
    ASSERT_TRUE(resumed.value().advance(m).ok());
    for (std::size_t c = m; c < n; ++c) resumed.value().replace_column(c, column(b, c));
    ASSERT_TRUE(resumed.value().advance(n).ok());
    expect_same_factorization(resumed.value(), full.value(), random_rhs(n, 5));
  }
  EXPECT_GT(fired, 0);
  EXPECT_GT(clean, 0);
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

// band_cannot_pay counts a row's distinct off-diagonal columns: repeats and
// the diagonal do not count, and 4 (d + 1) >= n is the bound.
TEST(BandCannotPay, CountsDistinctOffDiagonalColumnsAgainstTheBound) {
  using Entries = std::vector<std::pair<std::size_t, std::size_t>>;
  // Row 0 has d = 2 distinct columns (1 twice, the diagonal, 2).
  const Entries e = {{0, 0}, {0, 1}, {0, 1}, {0, 2}, {1, 0}, {2, 0}, {3, 3}};
  EXPECT_TRUE(band_cannot_pay(12, e));   // 4 * 3 = 12 >= 12
  EXPECT_FALSE(band_cannot_pay(13, e));  // 12 < 13
  EXPECT_FALSE(band_cannot_pay(8, Entries{{0, 0}, {1, 1}, {5, 5}}));
  Entries star;
  for (std::size_t j = 1; j < 40; ++j) star.emplace_back(0, j);
  EXPECT_TRUE(band_cannot_pay(40, star));
}

// Whenever band_cannot_pay holds, the RCM band does not pay either, so a
// caller that skips the ordering keeps its decision. Plain hidden bands of
// every size (interior rows have 5 distinct columns: the shortcut holds up
// to n = 24, the band pays from about n = 41), then random extra entries,
// some piled on one row, cover all three outcomes: shortcut, band pays,
// dense without the shortcut.
TEST(BandCannotPay, NeverOverridesTheRcmDecisionOnRandomPatterns) {
  int shortcut = 0;
  int pays = 0;
  int dense = 0;
  const auto check = [&](std::size_t n,
                         const std::vector<std::pair<std::size_t, std::size_t>>& e) {
    const bool rcm_pays = band_pays(rcm_ordering(n, e));
    if (band_cannot_pay(n, e)) {
      EXPECT_FALSE(rcm_pays) << "n = " << n << ", " << e.size() << " entries";
      ++shortcut;
    } else {
      ++(rcm_pays ? pays : dense);
    }
  };
  for (std::size_t n = 2; n <= 120; ++n) check(n, hidden_band(n, n).entries);
  Rng rng(29);
  for (std::uint64_t trial = 0; trial < 1500; ++trial) {
    const std::size_t n = 2 + rng.below(90);
    std::vector<std::pair<std::size_t, std::size_t>> e = hidden_band(n, trial).entries;
    const std::size_t extra = rng.below(n / 2 + 1);
    const std::size_t row = rng.below(n);
    for (std::size_t k = 0; k < extra; ++k) {
      const std::size_t c = rng.below(n);
      e.emplace_back(rng.below(2) == 0 ? row : rng.below(n), c);
    }
    check(n, e);
  }
  EXPECT_GT(shortcut, 0);
  EXPECT_GT(pays, 0);
  EXPECT_GT(dense, 0);
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
