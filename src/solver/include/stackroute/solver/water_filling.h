// Water-filling: the common-level characterization of Nash and optimum
// assignments on parallel links.
//
// For strictly increasing latencies the Nash assignment N of flow r is the
// unique vector with a level L such that every loaded link has ℓ_i(n_i) = L
// and every empty link has ℓ_i(0) >= L (Remark 4.1); the optimum O is the
// same statement for the marginal cost h_i = ℓ_i + x·ℓ_i' ([41], via the
// convexity of x·ℓ(x)). Both reduce to the scalar equation
//     S(L) = Σ_i clamp(inv_i(L)) = r
// with S continuous and non-decreasing, solved here by bisection.
//
// Constant-latency links (Remark 2.5 / [16]) make S set-valued: a constant
// link with level b absorbs any amount of flow at L = b. The solver detects
// the plateau (S(b_min) < r) and assigns the residual r − S(b_min) to the
// constant links at b_min, split equally — an arbitrary but cost-invariant
// tie-break, since every split of the residual among level-b_min constant
// links yields the same cost and the same level.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "stackroute/latency/latency.h"
#include "stackroute/solver/status.h"
#include "stackroute/solver/workspace.h"

namespace stackroute {

enum class LevelKind {
  kLatency,       // level = common latency  -> Nash assignment
  kMarginalCost,  // level = common marginal -> optimum assignment
};

/// The cold-start level hint (any non-finite hint means cold).
inline constexpr double kNoLevelHint =
    std::numeric_limits<double>::quiet_NaN();

struct LinkAssignment {
  std::vector<double> flows;
  /// The common level — latency (Nash) or marginal cost (optimum): every
  /// loaded link sits exactly at it, every empty link's at-zero value is
  /// >= it. For demand == 0 this is the smallest at-zero value over all
  /// links.
  double level = 0.0;
  /// True when the level is pinned by constant-latency links absorbing the
  /// residual flow.
  bool constant_plateau = false;
  /// How the solve ended. Anything but kConverged means `flows`/`level`
  /// are best-so-far: the flows fill consistently at `level`, but S(level)
  /// may miss the demand by `supply_gap`.
  SolveStatus status = SolveStatus::kConverged;
  /// demand - S(level) before the roundoff polish: the honest quality
  /// bound on a degraded solve (~0 when converged).
  double supply_gap = 0.0;
};

/// Solves S(L) = demand as described above, to a fixed level tolerance of
/// 1e-13. Throws if demand is negative, no links are given, or the demand
/// exceeds total capacity. The trailing arguments are all optional:
///   ws          workspace reused across calls (null = a private one; see
///               workspace.h): the links compile into ws->table once per
///               call (skipped when the link set is pointer-identical to
///               the previous call's), and every S(L) evaluation runs on
///               the flat kernel;
///   level_hint  a guess at the common level — typically the converged
///               level of the same system at a nearby demand. The solver
///               then brackets the root by expanding geometrically from
///               the hint and refines with safeguarded false position
///               instead of bisecting the full cold bracket, cutting the
///               S(L) evaluation count severalfold on dense demand sweeps.
///               Any non-finite or out-of-range hint falls back to the cold
///               path; the result agrees with the cold solve to the
///               tolerance either way (both brackets isolate the same root
///               of the same monotone function);
///   budget      `max_iters` caps the number of S(L) evaluations; the
///               deadline is polled once per evaluation. A budget hit or a
///               non-finite supply value degrades the result (status +
///               supply_gap) instead of throwing; a non-finite probe at the
///               warm hint falls back to the cold bracket (counted as a
///               warm_fallback) before degrading.
LinkAssignment water_fill(std::span<const LatencyPtr> links, double demand,
                          LevelKind kind, SolverWorkspace* ws = nullptr,
                          double level_hint = kNoLevelHint,
                          const SolveBudget& budget = {});

}  // namespace stackroute
