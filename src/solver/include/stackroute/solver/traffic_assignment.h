// Path-equilibration traffic assignment — the kPathEqualization backend of
// solve_equilibrium (solver/backend.h), which is its only entry point and
// the library's default; this header holds its tolerance and its warm-state
// payload.
//
// Solves the two convex routing programs of objective.h to high accuracy
// by maintaining, per commodity, an active set of paths and repeatedly
// shifting flow from the costliest active path to the cheapest path until
// all used paths sit within `tol` of the minimum — which is precisely the
// Wardrop condition (Nash) or the equal-marginal condition (optimum).
// Each shift is a 1-D convex problem solved by bisection; the Beckmann /
// total-cost objective decreases monotonically, and for strictly
// increasing latencies the unique edge flows are recovered to ~tol.
//
// Compared to Frank–Wolfe (frank_wolfe.h) this converges linearly rather
// than O(1/k) and returns an explicit path decomposition per commodity —
// which MOP needs anyway. Its achieved quality bound is the path-cost
// spread of the last completed sweep (EquilibriumResult::spread); its
// iteration count is the number of outer sweeps, and the exact
// equalization steps (one Dijkstra + one bisected pair move each, where
// the time goes) are reported through the equalization_steps counter.
#pragma once

#include <vector>

#include "stackroute/network/paths.h"

namespace stackroute {

struct AssignmentOptions {
  /// Path-cost equalization tolerance (absolute, on the latency scale).
  double tol = 1e-10;
};

/// Converged state of a prior path-equilibration solve on the *same* graph
/// and latencies at (possibly) different demands — the warm-start payload
/// for chained solves along a sweep axis. A non-empty payload seeds each
/// commodity's active path set with the prior paths, flows scaled per
/// commodity by r_new/r_old (the demand-rescaling projection; an exact
/// fix-up on the largest path keeps feasibility bitwise). A payload that
/// does not fit the instance — commodity count mismatch, non-positive prior
/// demand, or any path that is not a valid s_i-t_i path of this graph —
/// falls back to the cold all-or-nothing start, so a stale payload can cost
/// time but never correctness. Warm and cold runs converge to the same
/// equilibrium to the tolerance (unique edge flows for strictly increasing
/// latencies).
struct AssignmentWarmStart {
  std::vector<std::vector<PathFlow>> commodity_paths;  // [commodity]
  /// The demands those paths carried (one entry per commodity).
  std::vector<double> demands;

  [[nodiscard]] bool empty() const { return commodity_paths.empty(); }
};

}  // namespace stackroute
