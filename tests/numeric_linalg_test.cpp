#include <gtest/gtest.h>

#include "src/core/fault_injection.hpp"
#include "src/core/status.hpp"
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
