#include "src/eval/significance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "src/util/logging.h"

namespace vlsipart {
namespace {

/// Continued-fraction core for the incomplete beta (Lentz's algorithm),
/// following the classic numerical-recipes formulation.
double beta_cf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double regularized_incomplete_beta(double a, double b, double x) {
  VP_CHECK(a > 0.0 && b > 0.0, "beta parameters positive");
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double normal_two_sided_p(double z) {
  // 2 * (1 - Phi(|z|)) via erfc.
  return std::erfc(std::fabs(z) / std::sqrt(2.0));
}

double student_t_two_sided_p(double t, double dof) {
  if (dof <= 0.0) return 1.0;
  const double x = dof / (dof + t * t);
  return regularized_incomplete_beta(dof / 2.0, 0.5, x);
}

TestResult welch_t_test(const Sample& a, const Sample& b) {
  TestResult result;
  if (a.size() < 2 || b.size() < 2) return result;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double va = a.stddev() * a.stddev();
  const double vb = b.stddev() * b.stddev();
  const double se2 = va / na + vb / nb;
  if (se2 <= 0.0) {
    // Identical constant samples: no evidence of difference unless the
    // means differ exactly (then it is "infinitely" significant).
    result.p_value = (a.mean() == b.mean()) ? 1.0 : 0.0;
    return result;
  }
  result.statistic = (a.mean() - b.mean()) / std::sqrt(se2);
  // Welch-Satterthwaite degrees of freedom.
  const double dof =
      se2 * se2 /
      (va * va / (na * na * (na - 1.0)) + vb * vb / (nb * nb * (nb - 1.0)));
  result.p_value = student_t_two_sided_p(result.statistic, dof);
  return result;
}

TestResult mann_whitney_u(const Sample& a, const Sample& b) {
  TestResult result;
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  if (na < 2 || nb < 2) return result;

  // Pool, rank with midranks for ties.
  struct Obs {
    double value;
    bool from_a;
  };
  std::vector<Obs> pool;
  pool.reserve(na + nb);
  for (double v : a.values()) pool.push_back({v, true});
  for (double v : b.values()) pool.push_back({v, false});
  std::sort(pool.begin(), pool.end(),
            [](const Obs& x, const Obs& y) { return x.value < y.value; });

  double rank_sum_a = 0.0;
  double tie_correction = 0.0;
  std::size_t i = 0;
  while (i < pool.size()) {
    std::size_t j = i;
    while (j < pool.size() && pool[j].value == pool[i].value) ++j;
    const double midrank =
        (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    const auto ties = static_cast<double>(j - i);
    if (j - i > 1) tie_correction += ties * ties * ties - ties;
    for (std::size_t k = i; k < j; ++k) {
      if (pool[k].from_a) rank_sum_a += midrank;
    }
    i = j;
  }

  const double dna = static_cast<double>(na);
  const double dnb = static_cast<double>(nb);
  const double u_a = rank_sum_a - dna * (dna + 1.0) / 2.0;
  const double mean_u = dna * dnb / 2.0;
  const double n = dna + dnb;
  const double var_u =
      dna * dnb / 12.0 *
      ((n + 1.0) - tie_correction / (n * (n - 1.0)));
  if (var_u <= 0.0) {
    result.p_value = 1.0;  // all observations tied
    return result;
  }
  result.statistic = (u_a - mean_u) / std::sqrt(var_u);
  result.p_value = normal_two_sided_p(result.statistic);
  return result;
}

std::vector<double> holm_adjust(const std::vector<double>& p_values) {
  const std::size_t m = p_values.size();
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return p_values[a] < p_values[b];
                   });
  std::vector<double> adjusted(m);
  double running = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    const double scaled =
        static_cast<double>(m - j) * p_values[order[j]];
    running = std::max(running, std::min(1.0, scaled));
    adjusted[order[j]] = running;
  }
  return adjusted;
}

std::string describe_comparison(const std::string& label_a, const Sample& a,
                                const std::string& label_b, const Sample& b,
                                double alpha) {
  const TestResult t = welch_t_test(a, b);
  const TestResult u = mann_whitney_u(a, b);
  std::ostringstream out;
  const bool a_better = a.mean() < b.mean();
  out << (a_better ? label_a : label_b) << " better on average ("
      << (a_better ? a.mean() : b.mean()) << " vs "
      << (a_better ? b.mean() : a.mean()) << "); Welch p=" << t.p_value
      << ", Mann-Whitney p=" << u.p_value << " — "
      << (t.significant_at(alpha) && u.significant_at(alpha)
              ? "significant"
              : "NOT significant")
      << " at alpha=" << alpha;
  return out.str();
}

}  // namespace vlsipart
