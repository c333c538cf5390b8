// The closed-form exponent theory: Lemmas 33/36 values, monotonicity
// (Lemmas 57/61), the Lemma-58/62 parameter constructions, and the
// density searches behind Theorems 1 and 6.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "core/fitting.hpp"

namespace lcl {
namespace {

TEST(Exponents, EfficiencyFactors) {
  // Delta = 5, d = 2: x = log(2)/log(4) = 1/2; x' = log(4)/log(4) = 1.
  EXPECT_DOUBLE_EQ(core::efficiency_x(5, 2), 0.5);
  EXPECT_DOUBLE_EQ(core::efficiency_x_prime(5, 2), 1.0);
  // Delta = 9, d = 4: x = log(4)/log(8) = 2/3.
  EXPECT_NEAR(core::efficiency_x(9, 4), 2.0 / 3.0, 1e-12);
}

TEST(Exponents, Alpha1PolyEndpoints) {
  // Polynomial regime endpoints: sum_{j<k}(2-0)^j = 2^k - 1, so
  // alpha1(0) = 1/(2^k - 1) and alpha1(1) = 1/k.
  // k=2: alpha1(x) = 1/(1 + (2-x)); alpha1(0) = 1/3, alpha1(1) = 1/2.
  EXPECT_NEAR(core::alpha1_poly(0.0, 2), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(core::alpha1_poly(1.0, 2), 1.0 / 2.0, 1e-12);
  // k=3: alpha1(0) = 1/(1+2+4) = 1/7, alpha1(1) = 1/3.
  EXPECT_NEAR(core::alpha1_poly(0.0, 3), 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(core::alpha1_poly(1.0, 3), 1.0 / 3.0, 1e-12);
}

TEST(Exponents, Alpha1LogstarEndpoints) {
  // k=2: alpha1(x) = 1/(1 + (1-x)); alpha1(0) = 1/2, alpha1(1) = 1.
  EXPECT_NEAR(core::alpha1_logstar(0.0, 2), 0.5, 1e-12);
  EXPECT_NEAR(core::alpha1_logstar(1.0, 2), 1.0, 1e-12);
  // k=3: alpha1(0) = 1/(1 + 1*(1+2)) = 1/4 = 1/(2^k - ... ) indeed
  // 1/(2^{k-1}...): check against the unweighted value 1/(2^k - 1)?
  // Theorem 11's unweighted exponent for k=3 is 1/7; the weighted
  // alpha1(0) is 1/4 — they differ by design (weights shift the optimum).
  EXPECT_NEAR(core::alpha1_logstar(0.0, 3), 0.25, 1e-12);
}

TEST(Exponents, MonotoneAndContinuous) {
  // Lemmas 57/61: alpha1 is strictly increasing in x on [0, 1].
  for (int k : {2, 3, 4, 5}) {
    double prev_poly = 0, prev_star = 0;
    for (double x = 0.0; x <= 1.0001; x += 0.01) {
      const double ap = core::alpha1_poly(std::min(x, 1.0), k);
      const double as = core::alpha1_logstar(std::min(x, 1.0), k);
      EXPECT_GT(ap, prev_poly);
      EXPECT_GT(as, prev_star);
      prev_poly = ap;
      prev_star = as;
    }
  }
}

TEST(Exponents, ProfileRecurrence) {
  const double x = 0.5;
  for (int k : {2, 3, 4}) {
    const auto prof = core::alpha_profile_poly(x, k);
    ASSERT_EQ(prof.size(), static_cast<std::size_t>(k - 1));
    for (std::size_t i = 1; i < prof.size(); ++i) {
      EXPECT_NEAR(prof[i], (2.0 - x) * prof[i - 1], 1e-12);
    }
    // Lemma 33: setting all B_i equal means
    // 1 = alpha1 * sum_j (2-x)^j.
    double sum = 0, term = 1;
    for (int j = 0; j < k; ++j) {
      sum += term;
      term *= (2.0 - x);
    }
    EXPECT_NEAR(prof[0] * sum, 1.0, 1e-12);
  }
}

TEST(Exponents, Lemma58Params) {
  // x = p/q realized exactly: p=1,q=2 -> Delta=5, d=2, x=1/2.
  const auto g = core::params_for_rational(1, 2);
  EXPECT_EQ(g.delta, 5);
  EXPECT_EQ(g.d, 2);
  EXPECT_DOUBLE_EQ(g.x, 0.5);
  // p=2,q=3 -> Delta=9, d=4, x=2/3.
  const auto h = core::params_for_rational(2, 3);
  EXPECT_EQ(h.delta, 9);
  EXPECT_EQ(h.d, 4);
  EXPECT_NEAR(h.x, 2.0 / 3.0, 1e-12);
}

TEST(Exponents, Lemma62GapShrinks) {
  // Scaling p/q keeps x fixed and drives x' -> x.
  const auto wide = core::params_for_rational(1, 2);
  const auto narrow = core::params_with_gap(1, 2, 0.05);
  EXPECT_NEAR(narrow.x, wide.x, 1e-12);
  EXPECT_LT(narrow.x_prime - narrow.x, 0.05);
  EXPECT_LT(narrow.x_prime - narrow.x, wide.x_prime - wide.x);
}

TEST(Exponents, Theorem1DensitySearch) {
  for (auto [r1, r2] : std::vector<std::pair<double, double>>{
           {0.30, 0.35}, {0.21, 0.23}, {0.40, 0.45}, {0.12, 0.16}}) {
    const auto c = core::choose_poly_exponent(r1, r2);
    EXPECT_GE(c.exponent, r1);
    EXPECT_LE(c.exponent, r2);
    EXPECT_GE(c.params.delta, c.params.d + 3);
    // Realizability: exponent == alpha1(x(Delta, d), k).
    EXPECT_NEAR(c.exponent,
                core::alpha1_poly(
                    core::efficiency_x(c.params.delta, c.params.d), c.k),
                1e-12);
  }
}

TEST(Exponents, Theorem6DensitySearch) {
  const auto c = core::choose_logstar_exponent(0.55, 0.75, 0.05);
  EXPECT_GE(c.exponent, 0.55);
  EXPECT_LE(c.exponent, 0.75);
  const double hi = core::alpha1_logstar(
      core::efficiency_x_prime(c.params.delta, c.params.d), c.k);
  EXPECT_LT(hi - c.exponent, 0.05);
}

TEST(Fitting, RecoversExponent) {
  std::vector<core::Sample> s;
  for (double x : {10.0, 100.0, 1000.0, 10000.0}) {
    s.push_back({x, 3.0 * std::pow(x, 0.42)});
  }
  const auto fit = core::fit_power_law(s);
  EXPECT_TRUE(fit.ok);
  EXPECT_NEAR(fit.exponent, 0.42, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

/// Degenerate inputs must yield ok == false, never a throw: a stray
/// all-equal sweep cannot be allowed to abort a whole bench run.
TEST(Fitting, DegenerateInputsAreNotOk) {
  EXPECT_FALSE(core::fit_power_law({}).ok);
  EXPECT_FALSE(core::fit_power_law({{10.0, 5.0}}).ok);
  // Identical scales: the log-log x range is degenerate.
  EXPECT_FALSE(core::fit_power_law({{10.0, 5.0}, {10.0, 7.0}}).ok);
  // Non-positive samples have no log-log image.
  EXPECT_FALSE(core::fit_power_law({{10.0, 5.0}, {-20.0, 7.0}}).ok);
  EXPECT_FALSE(core::fit_power_law({{10.0, 0.0}, {20.0, 7.0}}).ok);
}

/// A flat (constant-measure) series is a valid zero-exponent fit.
TEST(Fitting, FlatSeriesFitsExponentZero) {
  const auto fit = core::fit_power_law({{10.0, 3.0}, {100.0, 3.0},
                                        {1000.0, 3.0}});
  EXPECT_TRUE(fit.ok);
  EXPECT_NEAR(fit.exponent, 0.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

/// lower_bound_lengths saturates its running product instead of
/// overflowing int64 at extreme (base, alpha) combinations.
TEST(Experiment, LowerBoundLengthsSaturatesInsteadOfOverflowing) {
  // Each ell_i ~ (1e7)^3 = 1e21 > int64 max: the lengths and the
  // product both saturate, and ell_k degrades to 1 instead of UB.
  const auto ell = core::lower_bound_lengths({3.0, 3.0, 3.0}, 1e7,
                                             std::int64_t{1} << 40);
  ASSERT_EQ(ell.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ell[i], std::numeric_limits<std::int64_t>::max());
  }
  EXPECT_EQ(ell.back(), 1);

  // Moderate values still behave exactly as before.
  const auto small = core::lower_bound_lengths({1.0}, 10.0, 1000);
  ASSERT_EQ(small.size(), 2u);
  EXPECT_EQ(small[0], 10);
  EXPECT_EQ(small[1], 100);

  // Overflow via the *product* of individually-representable lengths.
  const auto prod = core::lower_bound_lengths({2.0, 2.0, 2.0}, 1e6,
                                              std::int64_t{1} << 50);
  ASSERT_EQ(prod.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(prod[i], 1000000000000);
  EXPECT_EQ(prod.back(), 1);
}

/// Decline-regime gammas take the k-1 lower skeleton lengths, floored at
/// 2 (gamma == 1 is not a valid Decline threshold).
TEST(Experiment, DeclineGammasFloorTheLowerSkeletonLengths) {
  EXPECT_EQ(core::decline_gammas({1, 7, 30}, 3),
            (std::vector<std::int64_t>{2, 7}));
  EXPECT_TRUE(core::decline_gammas({5}, 1).empty());
}

}  // namespace
}  // namespace lcl
