// Algorithm MOP (Corollary 2.3, generalized to k commodities per §5): the
// minimum Leader portion β_G inducing the optimum on an arbitrary network,
// plus the optimal strategy, in polynomial time.
//
// Pipeline per the proof of Theorem 2.1, with steps 2-4 run once per
// origin (the commodities sharing a source):
//   1. Compute the optimum flow O and fix edge costs ℓ_e(o_e).
//   2. Per origin, find the shortest-path ("tight") subgraph w.r.t. those
//      costs: one Dijkstra from the origin; e = (u,v) is tight when
//      d(u) + ℓ_e(o_e) <= d(v) + tight_tol (footnote 5).
//   3. The free flow is the largest part of the origin's optimum routable
//      entirely inside its tight subgraph — one max flow with capacities
//      equal to the origin's optimum edge flows, into a super-sink fed by
//      one edge per commodity capped at its demand r_i. Commodity i's
//      free flow r'_i is the flow on its edge (an origin with a single
//      commodity flows to that commodity's sink instead).
//   4. The Leader controls everything else: exactly the optimum flow on
//      every non-shortest path. β_G = 1 − (Σ_i r'_i)/r.
//   5. The followers' selfish routing of the free flow under the preload
//      reproduces O (uniqueness of equilibrium edge flows), so
//      C(S+T) = C(O): approximation guarantee exactly 1.
//
// k-commodity note: all commodities from one origin share its tight
// subgraph, and every tight path from the origin to a sink costs that
// sink's distance, so step 3 does not depend on how the origin's optimum
// splits across its destinations. It does depend on how the total optimum
// splits across origins, which is not unique for k > 1: β is exact for
// k = 1 and an upper bound on the minimum portion otherwise (a bound
// independent of that split needs a multicommodity-flow LP).
#pragma once

#include <vector>

#include "stackroute/equilibrium/network.h"
#include "stackroute/network/instance.h"
#include "stackroute/network/paths.h"
#include "stackroute/obs/counters.h"

namespace stackroute {

struct MopCommodity {
  /// Optimum flow the Leader must control on non-shortest paths.
  std::vector<PathFlow> leader_paths;
  /// Optimum flow on shortest paths (left to the followers).
  std::vector<PathFlow> free_paths;
  double free_flow = 0.0;       // r'_i
  double controlled_flow = 0.0; // r_i − r'_i
  double shortest_cost = 0.0;   // L_i := dist(s_i, t_i) under ℓ_e(o_e)
  /// Tight-subgraph mask of s_i's origin (shared by its commodities).
  std::vector<char> tight_edges;
};

struct MopResult {
  /// The price of optimum β_G ∈ [0, 1] under a *strong* strategy (§4): the
  /// Leader may control a different fraction α_i of each commodity.
  double beta = 0.0;
  /// The price of optimum under a *weak* strategy: one uniform fraction α
  /// across commodities, so α must cover the worst commodity:
  /// max_i (controlled_i / r_i). Equals beta for single-commodity nets.
  double weak_beta = 0.0;
  std::vector<double> optimum_edge_flow;
  std::vector<double> leader_edge_flow;    // the strategy S, on edges
  std::vector<double> follower_edge_flow;  // induced equilibrium T, on edges
  double optimum_cost = 0.0;
  double induced_cost = 0.0;  // C(S+T), verified against C(O)
  double free_flow_total = 0.0;
  std::vector<MopCommodity> commodities;
  /// max_e |s_e + τ_e − o_e| — the verification residual.
  double induced_residual = 0.0;
  /// Worst outcome over the pipeline's assignment solves (optimum +
  /// induced verification). Degraded solves leave best-so-far flows in
  /// place; `spread` bounds how far they sit from equilibrium.
  SolveStatus status = SolveStatus::kConverged;
  /// Largest achieved path-cost spread over those solves (~tol when
  /// status == kConverged).
  double spread = 0.0;
  /// Work counters of the whole pipeline (optimum solve, tight-subgraph
  /// Dijkstras, verification solve) — all zero unless the calling thread
  /// had a counter sink installed (obs::CountersScope).
  obs::SolveCounters counters;
};

struct MopOptions {
  /// Resource limits shared by the optimum and the induced verification
  /// solve (armed once, so both draw on one deadline). Inactive by default.
  SolveBudget budget;
  /// Slack below which an edge counts as lying on a shortest path.
  static constexpr double tight_tol = 1e-7;
  /// Flows below this are treated as zero.
  static constexpr double flow_tol = 1e-9;
  /// Skip the induced-equilibrium verification solve (benches that only
  /// need β can save the second solve).
  bool verify_induced = true;
  /// Backend of the optimum and the induced solves: pe or bush, which
  /// publish the per-origin optimum flows step 3 reads. fw throws.
  EquilibriumBackend backend = EquilibriumBackend::kPathEqualization;
};

MopResult mop(const NetworkInstance& inst, const MopOptions& opts = {});

/// Workspace/warm-start variant: reuses the caller's workspace across the
/// optimum solve, every tight-subgraph Dijkstra and the induced
/// verification solve. Both solves are solve_equilibrium calls on
/// opts.backend, each warm-started from and publishing back to its own
/// state: `optimum_warm` for step 1, `induced_warm` for step 5 (null =
/// cold, nothing published). Step 3 reads the per-origin optimum flows
/// from the payload step 1 published (a local one when `optimum_warm` is
/// null). Chained β_G evaluations along a sweep axis pass the previous
/// point's states; an ill-fitting payload degrades to a cold solve, never
/// to a wrong answer. When step 5 does not run, `induced_warm` is
/// cleared.
MopResult mop(const NetworkInstance& inst, const MopOptions& opts,
              SolverWorkspace& ws, EquilibriumWarmState* optimum_warm,
              EquilibriumWarmState* induced_warm);

/// Convenience: just β_G.
double price_of_optimum(const NetworkInstance& inst);

}  // namespace stackroute
