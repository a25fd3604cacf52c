#include "stackroute/core/mop.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "stackroute/latency/families.h"
#include "stackroute/network/dijkstra.h"
#include "stackroute/network/maxflow.h"
#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/solver/objective.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

namespace {

/// Overwrites `out` with origin `oi`'s optimum edge flows, read from the
/// payload the optimum solve published: bush's per-origin flows (its
/// bushes follow group_by_origin's order), or pe's path decomposition
/// summed over the origin's commodities.
void origin_flow(const std::vector<OriginGroup>& origins, std::size_t oi,
                 const EquilibriumWarmState& warm, std::vector<double>& out) {
  std::fill(out.begin(), out.end(), 0.0);
  if (warm.backend == EquilibriumBackend::kBush) {
    // An optimum that failed numerically publishes no bushes.
    SR_REQUIRE(warm.bush.bushes.size() == origins.size(),
               "MOP: the bush optimum solve left no per-origin flows");
    const OriginBush& b = warm.bush.bushes[oi];
    SR_ASSERT(b.origin == origins[oi].origin, "bush order differs from MOP's");
    std::copy(b.flow.begin(), b.flow.end(), out.begin());
    return;
  }
  for (std::size_t i : origins[oi].commodities) {
    for (const PathFlow& pf : warm.paths.commodity_paths[i]) {
      for (EdgeId e : pf.path) out[static_cast<std::size_t>(e)] += pf.flow;
    }
  }
}

}  // namespace

MopResult mop(const NetworkInstance& inst, const MopOptions& opts) {
  // One workspace across the optimum solve, the cost fix-up and the
  // induced verification solve.
  SolverWorkspace ws;
  return mop(inst, opts, ws, nullptr, nullptr);
}

MopResult mop(const NetworkInstance& inst, const MopOptions& opts,
              SolverWorkspace& ws, EquilibriumWarmState* optimum_warm,
              EquilibriumWarmState* induced_warm) {
  if (opts.backend == EquilibriumBackend::kFrankWolfe) {
    throw Error(
        "MOP runs on the pe or bush backend: fw publishes no per-origin "
        "optimum flows");
  }
  obs::ScopedCounterDelta tally;
  obs::ScopedSpan span("mop");
  inst.validate();
  // Arm the budget once so the optimum solve and the induced verification
  // solve draw on a single shared deadline.
  EquilibriumRequest req;
  req.backend = opts.backend;
  req.objective = FlowObjective::kTotalCost;
  req.budget = opts.budget.armed();
  const Graph& g = inst.graph;
  const auto ne = static_cast<std::size_t>(g.num_edges());
  const std::size_t k = inst.commodities.size();
  const double r = inst.total_demand();

  MopResult result;
  // (1) Optimum flow and the induced edge costs ℓ_e(o_e). Step 3 reads
  // the per-origin flows from the published payload, so publish into a
  // local one when the caller keeps none.
  EquilibriumWarmState local_warm;
  EquilibriumWarmState& opt_payload =
      optimum_warm != nullptr ? *optimum_warm : local_warm;
  const EquilibriumResult opt = [&] {
    obs::ScopedSpan phase("mop_optimum");
    return solve_equilibrium(inst, {}, req, ws, optimum_warm, &opt_payload);
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

  const std::vector<OriginGroup> origins = group_by_origin(inst);
  // Step 3's flow network. An origin's lone commodity flows to its own
  // sink in the graph itself: through a super-sink its last augmenting
  // path would round differently, moving single-commodity answers in the
  // last bits. When some origin has several commodities, they share a
  // super-sink fed by one edge t_i -> super-sink per commodity, edge
  // ne + i.
  const bool shared = origins.size() < k;
  Graph with_sink;
  NodeId super_sink = kInvalidNode;
  if (shared) {
    with_sink = g;
    super_sink = with_sink.add_node();
    const LatencyPtr free_edge = make_constant(0.0);
    for (const Commodity& com : inst.commodities) {
      with_sink.add_edge(com.sink, super_sink, free_edge);
    }
  }
  const Graph& net = shared ? with_sink : g;
  // Per-origin scratch, hoisted out of the loop (the Dijkstras run on the
  // workspace's reused tree/heap buffers).
  std::vector<double> flow(ne);
  std::vector<double> caps(static_cast<std::size_t>(net.num_edges()), 0.0);
  std::vector<double> leader(caps.size(), 0.0);
  std::vector<char> tight(ne);
  {
    obs::ScopedSpan tight_span("mop_tight_subgraphs");
    for (std::size_t oi = 0; oi < origins.size(); ++oi) {
      const OriginGroup& o = origins[oi];
      origin_flow(origins, oi, opt_payload, flow);

      // (2) The origin's tight subgraph: every edge on some shortest path
      // from it under the optimum costs. All its commodities share it.
      const ShortestPathTree& tree =
          dijkstra(g, o.origin, opt_costs, ws.dijkstra);
      count_dijkstra(ws.dijkstra);
      for (std::size_t e = 0; e < ne; ++e) {
        const Edge& edge = g.edge(static_cast<EdgeId>(e));
        const double du = tree.dist[static_cast<std::size_t>(edge.tail)];
        tight[e] = std::isfinite(du) &&
                   du + opt_costs[e] <=
                       tree.dist[static_cast<std::size_t>(edge.head)] +
                           MopOptions::tight_tol;
        caps[e] = tight[e] ? flow[e] : 0.0;
      }

      // (3) Free flow: one max flow from the origin inside its tight
      // subgraph, capped by the origin's optimum flows. Commodity i's
      // free flow r'_i is the max flow's value for a lone commodity, and
      // otherwise the flow on its super-sink edge, capped at r_i.
      const bool lone = o.commodities.size() == 1;
      const NodeId sink =
          lone ? inst.commodities[o.commodities[0]].sink : super_sink;
      double demand = 0.0;
      for (std::size_t i : o.commodities) {
        const Commodity& com = inst.commodities[i];
        MopCommodity& trace = result.commodities[i];
        trace.shortest_cost = tree.dist[static_cast<std::size_t>(com.sink)];
        trace.tight_edges = tight;
        if (!lone) caps[ne + i] = com.demand;
        demand += com.demand;
      }
      const MaxFlowResult mf =
          max_flow(net, o.origin, sink, caps, demand, MopOptions::flow_tol);

      // (4) The Leader controls the rest of the origin's optimum.
      for (std::size_t e = 0; e < ne; ++e) {
        leader[e] = std::fmax(0.0, flow[e] - mf.edge_flow[e]);
        result.leader_edge_flow[e] += leader[e];
      }
      for (std::size_t i : o.commodities) {
        MopCommodity& trace = result.commodities[i];
        trace.free_flow = lone ? mf.value : mf.edge_flow[ne + i];
        trace.controlled_flow = inst.commodities[i].demand - trace.free_flow;
        if (!lone) leader[ne + i] = std::fmax(0.0, trace.controlled_flow);
      }
      // Per-commodity path lists: on the super-sink a path's last edge
      // names its commodity.
      const auto split = [&](std::span<const double> edge_flow,
                             std::vector<PathFlow> MopCommodity::*paths) {
        for (PathFlow& pf : decompose_flow(net, o.origin, sink, edge_flow,
                                           MopOptions::flow_tol)) {
          std::size_t i = o.commodities[0];
          if (!lone) {
            i = static_cast<std::size_t>(pf.path.back()) - ne;
            pf.path.pop_back();
          }
          (result.commodities[i].*paths).push_back(std::move(pf));
        }
      };
      split(mf.edge_flow, &MopCommodity::free_paths);
      split(leader, &MopCommodity::leader_paths);
      if (!lone) {
        for (std::size_t i : o.commodities) caps[ne + i] = leader[ne + i] = 0.0;
      }
    }
  }

  for (const MopCommodity& c : result.commodities) {
    result.free_flow_total += c.free_flow;
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
