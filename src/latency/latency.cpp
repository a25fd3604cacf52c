#include "stackroute/latency/latency.h"

#include <cmath>

#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/scalar.h"

namespace stackroute {

std::string to_string(LatencyKind kind) {
  switch (kind) {
    case LatencyKind::kConstant:
      return "constant";
    case LatencyKind::kAffine:
      return "affine";
    case LatencyKind::kPolynomial:
      return "polynomial";
    case LatencyKind::kBpr:
      return "bpr";
    case LatencyKind::kMm1:
      return "mm1";
    case LatencyKind::kShifted:
      return "shifted";
    case LatencyKind::kOffset:
      return "offset";
  }
  return "unknown";
}

double LatencyFunction::capacity() const { return kInf; }

namespace {

// Shared implementation of the clamped numeric inverses. `eval` is either
// value() or marginal(); both are continuous and non-decreasing for
// standard latencies.
template <typename Eval, typename Deriv>
double numeric_inverse(const LatencyFunction& fn, Eval eval, Deriv deriv,
                       double target) {
  SR_REQUIRE(!fn.is_constant(),
             "cannot invert a constant latency: " + fn.describe());
  if (target <= eval(0.0)) return 0.0;
  const double cap = fn.capacity();
  const double limit = std::isfinite(cap) ? cap : 1e18;
  auto g = [&](double x) { return eval(x) - target; };
  const double hi = expand_upper(g, 0.0, 1.0, limit);
  SR_REQUIRE(g(hi) >= 0.0,
             "latency inversion infeasible (target beyond capacity) for " +
                 fn.describe());
  return newton_bisect(g, deriv, 0.0, hi);
}

}  // namespace

double LatencyFunction::inverse(double target) const {
  return numeric_inverse(
      *this, [this](double x) { return value(x); },
      [this](double x) { return derivative(x); }, target);
}

double LatencyFunction::inverse_marginal(double target) const {
  // h'(x) = 2ℓ'(x) + xℓ''(x); we do not expose second derivatives, so give
  // Newton the lower bound 2ℓ'(x) (valid since xℓ(x) convex => h' >= ℓ').
  // newton_bisect is safeguarded, so an inexact slope only costs iterations.
  return numeric_inverse(
      *this, [this](double x) { return marginal(x); },
      [this](double x) { return 2.0 * derivative(x); }, target);
}

}  // namespace stackroute
