#include "stackroute/core/mop.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stackroute/network/dijkstra.h"
#include "stackroute/network/maxflow.h"
#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/solver/objective.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

MopResult mop(const NetworkInstance& inst, const MopOptions& opts) {
  // One workspace across the optimum solve, the cost fix-up and the
  // induced verification solve.
  SolverWorkspace ws;
  return mop(inst, opts, ws, nullptr, nullptr);
}

MopResult mop(const NetworkInstance& inst, const MopOptions& opts,
              SolverWorkspace& ws, EquilibriumWarmState* optimum_warm,
              EquilibriumWarmState* induced_warm) {
  obs::ScopedCounterDelta tally;
  obs::ScopedSpan span("mop");
  inst.validate();
  // Arm the budget once so the optimum solve and the induced verification
  // solve draw on a single shared deadline.
  EquilibriumRequest req;
  req.objective = FlowObjective::kTotalCost;
  req.budget = opts.budget.armed();
  const Graph& g = inst.graph;
  const auto ne = static_cast<std::size_t>(g.num_edges());
  const std::size_t k = inst.commodities.size();
  const double r = inst.total_demand();

  MopResult result;
  // (1) Optimum flow and the induced edge costs ℓ_e(o_e).
  const EquilibriumResult opt = [&] {
    obs::ScopedSpan phase("mop_optimum");
    return solve_equilibrium(inst, {}, req, ws, optimum_warm, optimum_warm);
  }();
  result.status = worst_status(result.status, opt.status);
  result.spread = std::fmax(result.spread, opt.spread);
  result.optimum_edge_flow = opt.edge_flow;
  result.optimum_cost = cost(inst, opt.edge_flow);
  const std::vector<LatencyPtr> lat = g.latencies();
  // The instance's own latencies, no preload: pointer-identical to the
  // optimum solve's set, so this compile is skipped on the fast path.
  ws.table.ensure_compiled(lat);
  std::vector<double> opt_costs(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    opt_costs[e] = ws.table.value(e, opt.edge_flow[e]);
  }

  result.leader_edge_flow.assign(ne, 0.0);
  result.commodities.resize(k);

  // Per-commodity scratch, hoisted out of the loop (and the Dijkstra pairs
  // below run on the workspace's reused tree/heap buffers).
  std::vector<double> commodity_opt(ne);
  std::vector<double> caps(ne);
  std::vector<double> leader_i(ne);
  {
    obs::ScopedSpan tight_span("mop_tight_subgraphs");
    for (std::size_t i = 0; i < k; ++i) {
      const Commodity& com = inst.commodities[i];
      MopCommodity& trace = result.commodities[i];

      // (2) Tight subgraph of commodity i under optimum costs; the forward
      // tree the mask computation leaves behind carries dist(s_i, t_i).
      shortest_path_edge_mask_into(g, com.source, com.sink, opt_costs,
                                   MopOptions::tight_tol, ws.dijkstra,
                                   ws.dijkstra_rev, trace.tight_edges);
      trace.shortest_cost =
          ws.dijkstra.tree.dist[static_cast<std::size_t>(com.sink)];

      // Commodity i's own optimum edge flows, used as max-flow capacities.
      std::fill(commodity_opt.begin(), commodity_opt.end(), 0.0);
      for (const PathFlow& pf : opt.commodity_paths[i]) {
        for (EdgeId e : pf.path) {
          commodity_opt[static_cast<std::size_t>(e)] += pf.flow;
        }
      }
      // (3) Free flow: max flow inside the tight subgraph.
      for (std::size_t e = 0; e < ne; ++e) {
        caps[e] = trace.tight_edges[e] ? commodity_opt[e] : 0.0;
      }
      const MaxFlowResult mf = max_flow(g, com.source, com.sink, caps,
                                        com.demand, MopOptions::flow_tol);
      trace.free_flow = mf.value;
      trace.controlled_flow = com.demand - mf.value;
      trace.free_paths = decompose_flow(g, com.source, com.sink, mf.edge_flow,
                                        MopOptions::flow_tol);

      // (4) Leader controls the remainder of commodity i's optimum.
      for (std::size_t e = 0; e < ne; ++e) {
        leader_i[e] = std::fmax(0.0, commodity_opt[e] - mf.edge_flow[e]);
        result.leader_edge_flow[e] += leader_i[e];
      }
      trace.leader_paths = decompose_flow(g, com.source, com.sink, leader_i,
                                          MopOptions::flow_tol);
      result.free_flow_total += trace.free_flow;
    }
  }

  result.beta = 1.0 - result.free_flow_total / r;
  // Clamp roundoff at the extremes.
  result.beta = std::fmin(1.0, std::fmax(0.0, result.beta));
  // Weak strategy: one uniform fraction must cover the neediest commodity.
  double weak = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    weak = std::fmax(
        weak, result.commodities[i].controlled_flow /
                  inst.commodities[i].demand);
  }
  result.weak_beta = std::fmin(1.0, std::fmax(0.0, weak));

  // (5) Verify: followers' selfish routing of the free flow under the
  // Leader's preload reproduces the optimum.
  bool induced_solved = false;
  result.follower_edge_flow.assign(ne, 0.0);
  if (opts.verify_induced) {
    obs::ScopedSpan verify_span("mop_induced");
    NetworkInstance followers;
    followers.graph = g;
    for (std::size_t i = 0; i < k; ++i) {
      if (result.commodities[i].free_flow > MopOptions::flow_tol) {
        Commodity c = inst.commodities[i];
        c.demand = result.commodities[i].free_flow;
        followers.commodities.push_back(c);
      }
    }
    if (!followers.commodities.empty()) {
      req.objective = FlowObjective::kBeckmann;
      EquilibriumResult induced =
          solve_equilibrium(followers, result.leader_edge_flow, req, ws,
                            induced_warm, induced_warm);
      induced_solved = true;
      result.status = worst_status(result.status, induced.status);
      result.spread = std::fmax(result.spread, induced.spread);
      result.follower_edge_flow = std::move(induced.edge_flow);
    }
    // C(S+T); when the Leader controls everything, the "induced" flow is
    // the strategy itself.
    const std::vector<double> combined =
        add(result.leader_edge_flow, result.follower_edge_flow);
    result.induced_cost = cost(inst, combined);
    result.induced_residual = max_abs_diff(combined, result.optimum_edge_flow);
  } else {
    result.induced_cost = result.optimum_cost;
  }
  // A skipped step 5 leaves no converged follower state to chain from.
  if (induced_warm != nullptr && !induced_solved) induced_warm->clear();
  if (tally.active()) result.counters = tally.current();
  return result;
}

double price_of_optimum(const NetworkInstance& inst) {
  MopOptions opts;
  opts.verify_induced = false;
  return mop(inst, opts).beta;
}

}  // namespace stackroute
