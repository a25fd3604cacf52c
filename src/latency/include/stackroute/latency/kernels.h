// The arithmetic of the standard latency families, written once.
//
// Each kernel is a plain function of one family's parameters (encodings as
// in families.h) and a load x or a target latency. The virtual family
// classes and LatencyTable's compiled entries both evaluate through these,
// so the two representations agree bitwise by construction — the sweep
// determinism contract ("bitwise identical tables") relies on it.
//
// The inverses are the clamped closed forms: targets at or below the value
// (resp. marginal) at 0 map to 0. Callers check that a closed form exists
// (affine slope > 0) before calling one.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "stackroute/util/numeric.h"

namespace stackroute::kernels {

// ---- Constant ℓ(x) = b -------------------------------------------------

inline double constant_integral(double b, double x) { return b * x; }

// ---- Affine ℓ(x) = a·x + b ---------------------------------------------

inline double affine_value(double a, double b, double x) { return a * x + b; }

inline double affine_integral(double a, double b, double x) {
  return 0.5 * a * x * x + b * x;
}

inline double affine_inverse(double a, double b, double target) {
  return std::fmax(0.0, (target - b) / a);
}

inline double affine_inverse_marginal(double a, double b, double target) {
  return std::fmax(0.0, (target - b) / (2.0 * a));
}

// ---- Polynomial ℓ(x) = Σ c[k]·x^k (Horner) -----------------------------

inline double poly_value(std::span<const double> c, double x) {
  double acc = 0.0;
  for (std::size_t k = c.size(); k-- > 0;) acc = acc * x + c[k];
  return acc;
}

inline double poly_derivative(std::span<const double> c, double x) {
  double acc = 0.0;
  for (std::size_t k = c.size(); k-- > 1;) {
    acc = acc * x + static_cast<double>(k) * c[k];
  }
  return acc;
}

inline double poly_integral(std::span<const double> c, double x) {
  double acc = 0.0;
  for (std::size_t k = c.size(); k-- > 0;) {
    acc = acc * x + c[k] / static_cast<double>(k + 1);
  }
  return acc * x;
}

// ---- BPR ℓ(x) = t0·(1 + B·(x/cap)^p) -----------------------------------

/// p as an int when it is a small integer, else 0. Such powers (p = 4 is
/// the standard parameterization) are evaluated as sequential multiplies
/// instead of std::pow, which otherwise dominates edge cost evaluation.
inline int bpr_int_power(double p) {
  return p == std::floor(p) && p <= 16.0 ? static_cast<int>(p) : 0;
}

/// (x/cap)^(p - drop) with drop ∈ {0, 1}; ip = bpr_int_power(p).
inline double bpr_ratio_pow(double cap, double p, int ip, double x,
                            int drop) {
  const double r = x / cap;
  return ip > 0 ? ipow_small(r, ip - drop)
                : std::pow(r, p - static_cast<double>(drop));
}

inline double bpr_value(double t0, double cap, double b, double p, int ip,
                        double x) {
  return t0 * (1.0 + b * bpr_ratio_pow(cap, p, ip, x, 0));
}

inline double bpr_derivative(double t0, double cap, double b, double p,
                             int ip, double x) {
  return t0 * b * p * bpr_ratio_pow(cap, p, ip, x, 1) / cap;
}

inline double bpr_integral(double t0, double cap, double b, double p, int ip,
                           double x) {
  return t0 * x + t0 * b * bpr_ratio_pow(cap, p, ip, x, 0) * x / (p + 1.0);
}

inline double bpr_inverse(double t0, double cap, double b, double p,
                          double target) {
  if (target <= t0) return 0.0;
  return cap * std::pow((target / t0 - 1.0) / b, 1.0 / p);
}

/// The marginal is t0 + t0·B·(p+1)·(x/cap)^p.
inline double bpr_inverse_marginal(double t0, double cap, double b, double p,
                                   double target) {
  if (target <= t0) return 0.0;
  return cap * std::pow((target / t0 - 1.0) / (b * (p + 1.0)), 1.0 / p);
}

// ---- M/M/1 ℓ(x) = 1/(mu − x) -------------------------------------------

/// Relative gap of the barrier x_b = mu·(1 − gap) below mu: past x_b ℓ
/// continues C¹-linearly, which keeps intermediate solver iterates finite.
inline constexpr double kMm1BarrierGap = 1e-7;

inline double mm1_break(double mu) { return mu * (1.0 - kMm1BarrierGap); }

inline double mm1_value(double mu, double x) {
  const double xb = mm1_break(mu);
  if (x <= xb) return 1.0 / (mu - x);
  const double v = 1.0 / (mu - xb);
  const double d = v * v;
  return v + d * (x - xb);
}

inline double mm1_derivative(double mu, double x) {
  const double xe = std::fmin(x, mm1_break(mu));
  const double v = 1.0 / (mu - xe);
  return v * v;
}

inline double mm1_integral(double mu, double x) {
  const double xb = mm1_break(mu);
  if (x <= xb) return std::log(mu / (mu - x));
  const double v = 1.0 / (mu - xb);
  const double d = v * v;
  const double t = x - xb;
  return std::log(mu / (mu - xb)) + v * t + 0.5 * d * t * t;
}

inline double mm1_inverse(double mu, double target) {
  if (target <= 1.0 / mu) return 0.0;
  const double xb = mm1_break(mu);
  const double vb = 1.0 / (mu - xb);
  if (target <= vb) return mu - 1.0 / target;
  return xb + (target - vb) / (vb * vb);
}

/// The marginal is mu/(mu − x)² inside the barrier; beyond it the value is
/// linear with slope s = vb², so the marginal is vb + s(x − x_b) + x·s.
inline double mm1_inverse_marginal(double mu, double target) {
  if (target <= 1.0 / mu) return 0.0;
  const double xb = mm1_break(mu);
  const double vb = 1.0 / (mu - xb);
  const double mb = mu * vb * vb;
  if (target <= mb) return mu - std::sqrt(mu / target);
  const double s = vb * vb;
  return (target - vb + s * xb) / (2.0 * s);
}

}  // namespace stackroute::kernels
