// Frank–Wolfe (convex combinations) traffic assignment.
//
// The classical method for the convex routing programs: linearize at the
// current flow, route everything all-or-nothing on shortest paths
// (Dijkstra per commodity, pool-parallel), then take the best convex
// combination. Converges O(1/k) — kept as an independent cross-check of
// the path-equilibration solver and as the ablation baseline for the
// bench suite (exact vs harmonic step, FW vs equilibration).
#pragma once

#include <span>
#include <vector>

#include "stackroute/network/instance.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/objective.h"
#include "stackroute/solver/status.h"
#include "stackroute/solver/workspace.h"

namespace stackroute {

enum class FwStepRule {
  kExactLineSearch,  // 1-D convex minimization per iteration
  kHarmonic,         // theta_k = 2/(k+2)
};

struct FrankWolfeOptions {
  int max_iters = 100000;
  /// Stop when (c·f − c·y)/max(c·f, eps) <= rel_gap_tol, y the AON flow.
  double rel_gap_tol = 1e-6;
  FwStepRule step_rule = FwStepRule::kExactLineSearch;
  /// Resource limits (iteration cap, wall-clock deadline, opt-in stall
  /// detection). Inactive by default; see status.h.
  SolveBudget budget;
};

struct FrankWolfeResult {
  std::vector<double> edge_flow;
  double objective = 0.0;
  /// The relative gap actually achieved — the honest quality bound on
  /// `edge_flow` whether or not the solve converged.
  double rel_gap = 0.0;
  int iterations = 0;
  /// How the solve ended. A degraded status means `edge_flow` is the
  /// best-so-far feasible iterate with quality bound `rel_gap`.
  SolveStatus status = SolveStatus::kConverged;
  /// This solve's work counters — all zero unless the calling thread had a
  /// counter sink installed (obs::CountersScope).
  obs::SolveCounters counters;
};

/// Minimizes `objective` over feasible flows of `inst` under the Leader's
/// edge `preload` (empty = none).
FrankWolfeResult frank_wolfe(const NetworkInstance& inst,
                             FlowObjective objective,
                             std::span<const double> preload = {},
                             const FrankWolfeOptions& opts = {});

/// Same, reusing the caller's workspace across calls (see workspace.h).
FrankWolfeResult frank_wolfe(const NetworkInstance& inst,
                             FlowObjective objective,
                             std::span<const double> preload,
                             const FrankWolfeOptions& opts,
                             SolverWorkspace& ws);

/// Warm-started variant for chained solves: `warm_flow` is a feasible edge
/// flow of the same network computed at total demand `warm_total_demand`
/// (e.g. the converged flow of the neighboring point of a demand sweep).
/// The demand-rescaling projection scales it by
/// inst.total_demand()/warm_total_demand — feasible whenever the commodity
/// split is proportional between the two points, which is how the sweep
/// layer varies demand — and iterates from there instead of from the
/// all-or-nothing bootstrap. A size-mismatched or non-positive-demand warm
/// flow falls back to the cold start; either way the iteration converges
/// to the same minimizer, to opts tolerance.
///
/// Unchecked precondition (unlike assign_traffic's warm start, a bare
/// edge flow cannot be validated against per-commodity demands): the
/// commodity split MUST be proportional between the warm point and
/// `inst`. Seeding from a non-proportionally rescaled flow starts the
/// iteration infeasible, and the convex combinations only damp that
/// infeasibility geometrically — the gap test can then report
/// convergence on a flow that does not route the demands. Callers
/// chaining anything but a uniform demand scale should use
/// assign_traffic's path-based warm start instead.
FrankWolfeResult frank_wolfe(const NetworkInstance& inst,
                             FlowObjective objective,
                             std::span<const double> preload,
                             const FrankWolfeOptions& opts,
                             SolverWorkspace& ws,
                             std::span<const double> warm_flow,
                             double warm_total_demand);

}  // namespace stackroute
