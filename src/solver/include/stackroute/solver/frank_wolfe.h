// Frank–Wolfe (convex combinations) traffic assignment — the kFrankWolfe
// backend of solve_equilibrium (solver/backend.h), which is its only entry
// point; this header holds its tolerance.
//
// The classical method for the convex routing programs: linearize at the
// current flow, route everything all-or-nothing on shortest paths
// (Dijkstra per commodity, pool-parallel), then step to the best convex
// combination by exact line search. Converges O(1/k) — kept as an
// independent cross-check of the path-equilibration and bush solvers.
//
// Warm start: the converged edge flow of a prior solve on the same network
// (EquilibriumWarmState::fw_flow) is scaled by the total-demand ratio —
// the demand-rescaling projection — and iterated from there instead of
// from the all-or-nothing bootstrap. A bare edge flow cannot prove that
// projection feasible, so the warm state also snapshots the per-commodity
// demands it routed, and a seed whose commodity split is not proportional
// to the new demands (or whose size does not match) falls back to the
// cold start. Either way the iteration converges to the same minimizer, to
// the options' tolerance.
#pragma once

namespace stackroute {

struct FrankWolfeOptions {
  /// Stop when (c·f − c·y)/max(c·f, eps) <= rel_gap_tol, y the AON flow.
  double rel_gap_tol = 1e-6;
};

}  // namespace stackroute
