// Statistical significance tests for heuristic comparison.
//
// Section 3.2: "Statistical analyses (e.g., significance tests) are also
// recognized as helpful in evaluating the significance of solution cost
// variation in diverse circumstances; Brglez has recently pointed this
// out, along with effects of randomizations, in the VLSI CAD literature
// [7]."  These tests answer Brglez's question — "which improvements are
// due to improved heuristic and which are merely due to chance?" — for
// two samples of per-start cuts.
#pragma once

#include <string>
#include <vector>

#include "src/util/stats.h"

namespace vlsipart {

struct TestResult {
  double statistic = 0.0;
  /// Two-sided p-value.
  double p_value = 1.0;
  /// Convenience: p_value < alpha for the chosen alpha.
  bool significant_at(double alpha) const { return p_value < alpha; }
};

/// Welch's unequal-variance t-test on the means of two samples.
/// Requires at least 2 observations per sample.
TestResult welch_t_test(const Sample& a, const Sample& b);

/// Mann-Whitney U test (rank-sum), normal approximation with tie
/// correction.  Distribution-free — appropriate for cut distributions,
/// which are typically skewed.  Requires at least 2 observations per
/// sample.
TestResult mann_whitney_u(const Sample& a, const Sample& b);

/// Holm's step-down adjustment of a family of p-values: the i-th
/// smallest becomes max over j <= i of min(1, (m - j + 1) * p_(j)), so
/// "adjusted p < alpha" controls the family-wise error rate at alpha.
/// Returned in the input order.
std::vector<double> holm_adjust(const std::vector<double>& p_values);

/// Two-sided p-value of a standard normal deviate.
double normal_two_sided_p(double z);

/// Two-sided p-value of Student's t with (possibly fractional) degrees
/// of freedom, via the regularized incomplete beta function.
double student_t_two_sided_p(double t, double dof);

/// Regularized incomplete beta function I_x(a, b) (continued-fraction
/// evaluation); exposed for tests.
double regularized_incomplete_beta(double a, double b, double x);

/// Human-readable verdict ("A better, p=0.003 (significant at 0.05)").
std::string describe_comparison(const std::string& label_a, const Sample& a,
                                const std::string& label_b, const Sample& b,
                                double alpha = 0.05);

}  // namespace vlsipart
