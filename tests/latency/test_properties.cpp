// Property sweeps over the latency families: the "standard latency"
// contract of §4 (non-negative, increasing, x·ℓ(x) convex), consistency of
// analytic derivatives/integrals/inverses, and the validator itself.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "stackroute/latency/families.h"
#include "stackroute/latency/validate.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

struct FamilyCase {
  std::string name;
  LatencyPtr fn;
  double x_max;  // sweep upper bound (inside capacity)
};

std::vector<FamilyCase> family_cases() {
  std::vector<FamilyCase> cases;
  Rng rng(2024);
  cases.push_back({"affine_unit", make_affine(1.0, 0.0), 8.0});
  cases.push_back({"affine_steep", make_affine(7.5, 0.25), 8.0});
  cases.push_back({"constant", make_constant(0.7), 8.0});
  cases.push_back({"poly_quadratic", make_polynomial({0.5, 0.0, 2.0}), 5.0});
  cases.push_back({"poly_cubic", make_polynomial({0.1, 1.0, 0.0, 0.5}), 4.0});
  cases.push_back({"monomial_d4", make_monomial(1.0, 4), 3.0});
  cases.push_back({"bpr_default", make_bpr(1.0, 1.0), 3.0});
  cases.push_back({"bpr_steep", make_bpr(2.0, 0.5, 0.3, 6.0), 1.5});
  cases.push_back({"mm1_mu2", make_mm1(2.0), 1.8});
  cases.push_back({"mm1_mu10", make_mm1(10.0), 9.0});
  cases.push_back(
      {"shifted_affine", make_shifted(make_affine(2.0, 0.5), 1.25), 6.0});
  cases.push_back({"shifted_mm1", make_shifted(make_mm1(4.0), 1.0), 2.5});
  cases.push_back({"offset_poly",
                   make_offset(make_polynomial({0.2, 0.3, 0.4}), 2.5), 4.0});
  for (int i = 0; i < 8; ++i) {
    cases.push_back({"random_affine_" + std::to_string(i),
                     make_affine(rng.uniform(0.1, 5.0), rng.uniform(0.0, 3.0)),
                     6.0});
  }
  return cases;
}

class LatencyContract : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(LatencyContract, SatisfiesStandardLatencyContract) {
  const auto& c = GetParam();
  const LatencyValidationReport report = validate_latency(*c.fn, c.x_max);
  EXPECT_TRUE(report.ok) << c.name << ": " << report.violation;
}

TEST_P(LatencyContract, DerivativeMatchesFiniteDifference) {
  const auto& c = GetParam();
  const double h = 1e-6 * std::fmax(1.0, c.x_max);
  for (int i = 1; i <= 16; ++i) {
    const double x = c.x_max * i / 17.0;
    const double fd = (c.fn->value(x + h) - c.fn->value(x - h)) / (2.0 * h);
    const double an = c.fn->derivative(x);
    EXPECT_NEAR(an, fd, 1e-4 * std::fmax(1.0, std::fabs(an)))
        << c.name << " at x=" << x;
  }
}

TEST_P(LatencyContract, IntegralDerivativeIsValue) {
  const auto& c = GetParam();
  const double h = 1e-6 * std::fmax(1.0, c.x_max);
  for (int i = 1; i <= 16; ++i) {
    const double x = c.x_max * i / 17.0;
    const double fd = (c.fn->integral(x + h) - c.fn->integral(x - h)) / (2.0 * h);
    EXPECT_NEAR(fd, c.fn->value(x), 1e-4 * std::fmax(1.0, c.fn->value(x)))
        << c.name << " at x=" << x;
  }
}

TEST_P(LatencyContract, InverseIsLeftInverseOfValue) {
  const auto& c = GetParam();
  if (c.fn->is_constant()) return;
  for (int i = 1; i <= 16; ++i) {
    const double x = c.x_max * i / 17.0;
    EXPECT_NEAR(c.fn->inverse(c.fn->value(x)), x,
                1e-6 * std::fmax(1.0, x))
        << c.name << " at x=" << x;
  }
}

TEST_P(LatencyContract, InverseMarginalIsLeftInverseOfMarginal) {
  const auto& c = GetParam();
  if (c.fn->is_constant()) return;
  for (int i = 1; i <= 16; ++i) {
    const double x = c.x_max * i / 17.0;
    EXPECT_NEAR(c.fn->inverse_marginal(c.fn->marginal(x)), x,
                1e-6 * std::fmax(1.0, x))
        << c.name << " at x=" << x;
  }
}

TEST_P(LatencyContract, InverseClampsAtZeroBelowBaseValue) {
  const auto& c = GetParam();
  if (c.fn->is_constant()) return;
  const double base = c.fn->value(0.0);
  EXPECT_DOUBLE_EQ(c.fn->inverse(base * 0.5), 0.0) << c.name;
  EXPECT_DOUBLE_EQ(c.fn->inverse(base), 0.0) << c.name;
}

TEST_P(LatencyContract, MarginalDominatesValue) {
  // h(x) = ℓ(x) + xℓ'(x) >= ℓ(x) for increasing ℓ and x >= 0.
  const auto& c = GetParam();
  for (int i = 0; i <= 16; ++i) {
    const double x = c.x_max * i / 17.0;
    EXPECT_GE(c.fn->marginal(x) + 1e-12, c.fn->value(x))
        << c.name << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, LatencyContract, ::testing::ValuesIn(family_cases()),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return info.param.name;
    });

// The validator must also *reject* broken functions.

class DecreasingLatency final : public LatencyFunction {
 public:
  double value(double x) const override { return 10.0 - x; }
  double derivative(double) const override { return -1.0; }
  double integral(double x) const override { return 10.0 * x - 0.5 * x * x; }
  LatencyKind kind() const override { return LatencyKind::kAffine; }
  std::vector<double> params() const override { return {}; }
  std::string describe() const override { return "10 - x"; }
};

class LyingIntegralLatency final : public LatencyFunction {
 public:
  double value(double x) const override { return x; }
  double derivative(double) const override { return 1.0; }
  double integral(double x) const override { return x; }  // wrong: should be x²/2
  LatencyKind kind() const override { return LatencyKind::kAffine; }
  std::vector<double> params() const override { return {}; }
  std::string describe() const override { return "lying integral"; }
};

TEST(ValidateLatency, RejectsDecreasingFunction) {
  const auto report = validate_latency(DecreasingLatency{}, 5.0);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.violation.find("decreasing"), std::string::npos);
}

TEST(ValidateLatency, RejectsInconsistentIntegral) {
  const auto report = validate_latency(LyingIntegralLatency{}, 5.0);
  EXPECT_FALSE(report.ok);
}

TEST(ValidateLatency, AcceptsAllBuiltInFamilies) {
  for (const auto& c : family_cases()) {
    EXPECT_TRUE(validate_latency(*c.fn, c.x_max).ok) << c.name;
  }
}

}  // namespace
}  // namespace stackroute
