// Load-dependent latency functions (the paper's "standard" latencies, §4).
//
// A standard latency ℓ is differentiable, non-decreasing (strictly
// increasing except for the constant extension of Remark 2.5 / [16]) and
// has convex x·ℓ(x). The interface exposes everything the equilibrium
// machinery needs:
//   value            ℓ(x)        path/link delay at load x
//   derivative       ℓ'(x)
//   integral         ∫₀ˣ ℓ       Beckmann potential term (Nash objective)
//   marginal         ℓ(x)+xℓ'(x) marginal social cost (optimum objective)
//   inverse          flow at which ℓ reaches a target latency
//   inverse_marginal flow at which the marginal cost reaches a target
// Inverses are *clamped*: targets below ℓ(0) (resp. marginal(0)) map to 0,
// which is exactly the water-filling convention (an unused link keeps
// latency ℓ(0) ≥ L).
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace stackroute {

/// Tag used for (de)serialization and introspection.
enum class LatencyKind {
  kConstant,
  kAffine,
  kPolynomial,
  kBpr,
  kMm1,
  kShifted,
  kOffset,
};

/// Printable name of a LatencyKind ("affine", "mm1", ...).
std::string to_string(LatencyKind kind);

class LatencyFunction {
 public:
  virtual ~LatencyFunction() = default;

  /// ℓ(x) for load x >= 0.
  [[nodiscard]] virtual double value(double x) const = 0;

  /// ℓ'(x).
  [[nodiscard]] virtual double derivative(double x) const = 0;

  /// ∫₀ˣ ℓ(u) du — the Beckmann potential contribution of this link.
  [[nodiscard]] virtual double integral(double x) const = 0;

  /// Marginal social cost h(x) = d/dx [x·ℓ(x)] = ℓ(x) + x·ℓ'(x).
  [[nodiscard]] double marginal(double x) const {
    return value(x) + x * derivative(x);
  }

  /// Smallest x >= 0 with ℓ(x) >= target; 0 when target <= ℓ(0).
  /// Overridden with closed forms by every family that has one; the default
  /// uses safeguarded Newton. Throws for constant latencies (no inverse).
  [[nodiscard]] virtual double inverse(double target) const;

  /// Smallest x >= 0 with marginal(x) >= target; 0 when target <= marginal(0).
  /// Throws for constant latencies.
  [[nodiscard]] virtual double inverse_marginal(double target) const;

  /// True if ℓ is constant (slope identically zero). Constant links need
  /// special handling in water-filling: their latency never responds to
  /// load, so they absorb residual flow at a fixed level (Remark 2.5).
  [[nodiscard]] virtual bool is_constant() const { return false; }

  /// Supremum of the feasible load domain. Finite only for queueing-style
  /// latencies (M/M/1 capacity μ). Equilibrium flows always stay strictly
  /// below this; see MM1Latency for the barrier extension used to keep
  /// intermediate solver iterates finite.
  [[nodiscard]] virtual double capacity() const;

  [[nodiscard]] virtual LatencyKind kind() const = 0;

  /// Parameter vector in the family-specific order documented on each
  /// class; together with kind() this round-trips through make_latency().
  [[nodiscard]] virtual std::vector<double> params() const = 0;

  /// Human-readable formula, e.g. "2.5x + 0.1667" or "1/(2 - x)".
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Latencies are immutable and shared freely between instances, strategies
/// and shifted wrappers, hence shared_ptr-to-const.
using LatencyPtr = std::shared_ptr<const LatencyFunction>;

}  // namespace stackroute
