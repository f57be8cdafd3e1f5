// Tests for the statistical significance machinery (Brglez [7] /
// Sec. 3.2 "significance tests").
#include <gtest/gtest.h>

#include <cmath>

#include "src/eval/significance.h"
#include "src/util/rng.h"

namespace vlsipart {
namespace {

Sample normal_sample(double mean, double stddev, std::size_t n,
                     std::uint64_t seed) {
  Rng rng(seed);
  Sample s;
  for (std::size_t i = 0; i < n; ++i) s.add(rng.normal(mean, stddev));
  return s;
}

TEST(IncompleteBeta, KnownValues) {
  // I_x(1, 1) = x (uniform CDF).
  EXPECT_NEAR(regularized_incomplete_beta(1.0, 1.0, 0.3), 0.3, 1e-12);
  // I_x(2, 2) = x^2 (3 - 2x).
  EXPECT_NEAR(regularized_incomplete_beta(2.0, 2.0, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(regularized_incomplete_beta(2.0, 2.0, 0.25),
              0.25 * 0.25 * (3.0 - 0.5), 1e-12);
  // Boundaries.
  EXPECT_DOUBLE_EQ(regularized_incomplete_beta(3.0, 4.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_incomplete_beta(3.0, 4.0, 1.0), 1.0);
}

TEST(NormalP, KnownValues) {
  EXPECT_NEAR(normal_two_sided_p(0.0), 1.0, 1e-12);
  EXPECT_NEAR(normal_two_sided_p(1.959964), 0.05, 1e-4);
  EXPECT_NEAR(normal_two_sided_p(-1.959964), 0.05, 1e-4);
  EXPECT_NEAR(normal_two_sided_p(2.575829), 0.01, 1e-4);
}

TEST(StudentT, KnownValues) {
  // t = 2.228 with 10 dof -> p = 0.05 (two-sided).
  EXPECT_NEAR(student_t_two_sided_p(2.228139, 10.0), 0.05, 1e-4);
  // Large dof approaches the normal distribution.
  EXPECT_NEAR(student_t_two_sided_p(1.959964, 1e6),
              normal_two_sided_p(1.959964), 1e-3);
  EXPECT_NEAR(student_t_two_sided_p(0.0, 5.0), 1.0, 1e-12);
}

TEST(WelchT, DetectsRealDifference) {
  const Sample a = normal_sample(100.0, 5.0, 40, 1);
  const Sample b = normal_sample(110.0, 5.0, 40, 2);
  const TestResult r = welch_t_test(a, b);
  EXPECT_TRUE(r.significant_at(0.001));
  EXPECT_LT(r.statistic, 0.0);  // a has the smaller mean
}

TEST(WelchT, AcceptsNullWhenSame) {
  const Sample a = normal_sample(100.0, 5.0, 40, 3);
  const Sample b = normal_sample(100.0, 5.0, 40, 4);
  const TestResult r = welch_t_test(a, b);
  EXPECT_FALSE(r.significant_at(0.01));
}

TEST(WelchT, FalsePositiveRateNearAlpha) {
  // Property: under the null, p < 0.05 should occur ~5% of the time.
  int rejections = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const Sample a =
        normal_sample(50.0, 3.0, 20, 1000 + 2 * static_cast<unsigned>(t));
    const Sample b =
        normal_sample(50.0, 3.0, 20, 1001 + 2 * static_cast<unsigned>(t));
    if (welch_t_test(a, b).significant_at(0.05)) ++rejections;
  }
  const double rate = static_cast<double>(rejections) / trials;
  EXPECT_GT(rate, 0.01);
  EXPECT_LT(rate, 0.12);
}

TEST(WelchT, TooFewSamplesIsInconclusive) {
  Sample a;
  a.add(1.0);
  Sample b;
  b.add(2.0);
  b.add(3.0);
  EXPECT_DOUBLE_EQ(welch_t_test(a, b).p_value, 1.0);
}

TEST(WelchT, ConstantSamples) {
  Sample a;
  Sample b;
  for (int i = 0; i < 5; ++i) {
    a.add(7.0);
    b.add(7.0);
  }
  EXPECT_DOUBLE_EQ(welch_t_test(a, b).p_value, 1.0);
  Sample c;
  for (int i = 0; i < 5; ++i) c.add(9.0);
  EXPECT_DOUBLE_EQ(welch_t_test(a, c).p_value, 0.0);
}

TEST(MannWhitney, DetectsShift) {
  const Sample a = normal_sample(100.0, 5.0, 40, 5);
  const Sample b = normal_sample(112.0, 5.0, 40, 6);
  const TestResult r = mann_whitney_u(a, b);
  EXPECT_TRUE(r.significant_at(0.001));
}

TEST(MannWhitney, AcceptsNull) {
  const Sample a = normal_sample(100.0, 5.0, 40, 7);
  const Sample b = normal_sample(100.0, 5.0, 40, 8);
  EXPECT_FALSE(mann_whitney_u(a, b).significant_at(0.01));
}

TEST(MannWhitney, HandlesHeavyTies) {
  // Integer cut values produce many ties; the tie correction must keep
  // the statistic finite and sane.
  Sample a;
  Sample b;
  for (int i = 0; i < 30; ++i) {
    a.add(static_cast<double>(100 + (i % 3)));
    b.add(static_cast<double>(101 + (i % 3)));
  }
  const TestResult r = mann_whitney_u(a, b);
  EXPECT_TRUE(std::isfinite(r.statistic));
  EXPECT_TRUE(r.significant_at(0.05));
  // Fully tied: inconclusive.
  Sample c;
  Sample d;
  for (int i = 0; i < 10; ++i) {
    c.add(5.0);
    d.add(5.0);
  }
  EXPECT_DOUBLE_EQ(mann_whitney_u(c, d).p_value, 1.0);
}

TEST(MannWhitney, RobustToOutliers) {
  // A rank test should still detect the shift when Welch is diluted by
  // one huge outlier.
  Sample a = normal_sample(100.0, 2.0, 30, 9);
  Sample b = normal_sample(104.0, 2.0, 30, 10);
  a.add(10000.0);  // pathological run in sample a
  const TestResult u = mann_whitney_u(a, b);
  EXPECT_TRUE(u.significant_at(0.01));
}

TEST(Holm, StepDownAdjustment) {
  // Sorted 0.01, 0.02, 0.04, 0.30 scale by 4, 3, 2, 1 (0.04, 0.06,
  // 0.08, 0.30), made monotone; returned in input order.
  const std::vector<double> adjusted = holm_adjust({0.04, 0.01, 0.30, 0.02});
  ASSERT_EQ(adjusted.size(), 4u);
  EXPECT_DOUBLE_EQ(adjusted[0], 0.08);
  EXPECT_DOUBLE_EQ(adjusted[1], 0.04);
  EXPECT_DOUBLE_EQ(adjusted[2], 0.30);
  EXPECT_DOUBLE_EQ(adjusted[3], 0.06);
  // Monotone: a later p never adjusts below an earlier one; capped at 1.
  const std::vector<double> capped = holm_adjust({0.5, 0.4});
  EXPECT_DOUBLE_EQ(capped[0], 0.8);
  EXPECT_DOUBLE_EQ(capped[1], 0.8);
  EXPECT_TRUE(holm_adjust({}).empty());
}

TEST(Describe, MentionsWinnerAndSignificance) {
  const Sample a = normal_sample(100.0, 3.0, 30, 11);
  const Sample b = normal_sample(120.0, 3.0, 30, 12);
  const std::string s = describe_comparison("ours", a, "theirs", b);
  EXPECT_NE(s.find("ours better"), std::string::npos);
  EXPECT_NE(s.find("significant"), std::string::npos);
}

}  // namespace
}  // namespace vlsipart
