#include "stackroute/equilibrium/network.h"

#include <cmath>

#include "stackroute/network/dijkstra.h"
#include "stackroute/solver/objective.h"
#include "stackroute/util/error.h"

namespace stackroute {

double cost(const NetworkInstance& inst, std::span<const double> edge_flow) {
  const std::vector<LatencyPtr> lat = inst.graph.latencies();
  return total_cost(lat, edge_flow);
}

bool satisfies_wardrop(const NetworkInstance& inst,
                       std::span<const std::vector<PathFlow>> commodity_paths,
                       std::span<const double> preload, double tol) {
  if (commodity_paths.size() != inst.commodities.size()) return false;
  const Graph& g = inst.graph;
  const auto ne = static_cast<std::size_t>(g.num_edges());

  // A-posteriori follower flows and edge latencies.
  std::vector<double> follower(ne, 0.0);
  for (const auto& paths : commodity_paths) {
    for (const PathFlow& pf : paths) {
      if (pf.flow < -tol) return false;
      for (EdgeId e : pf.path) follower[static_cast<std::size_t>(e)] += pf.flow;
    }
  }
  std::vector<double> latency(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    const double load =
        follower[e] + (preload.empty() ? 0.0 : preload[e]);
    latency[e] = g.edge(static_cast<EdgeId>(e)).latency->value(load);
  }

  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    const Commodity& com = inst.commodities[i];
    const ShortestPathTree tree = dijkstra(g, com.source, latency);
    const double best = tree.dist[static_cast<std::size_t>(com.sink)];
    if (!std::isfinite(best)) return false;
    for (const PathFlow& pf : commodity_paths[i]) {
      if (pf.flow <= tol) continue;
      if (!is_path(g, com.source, com.sink, pf.path)) return false;
      const double c = path_cost(latency, pf.path);
      if (c > best + tol * std::fmax(1.0, std::fabs(best))) return false;
    }
  }
  return true;
}

double price_of_anarchy(const NetworkInstance& inst) {
  SolverWorkspace ws;
  EquilibriumRequest req;
  const double n =
      cost(inst, solve_equilibrium(inst, {}, req, ws, nullptr, nullptr)
                     .edge_flow);
  req.objective = FlowObjective::kTotalCost;
  const double o =
      cost(inst, solve_equilibrium(inst, {}, req, ws, nullptr, nullptr)
                     .edge_flow);
  SR_REQUIRE(o > 0.0, "optimum cost is zero; PoA undefined");
  return n / o;
}

}  // namespace stackroute
