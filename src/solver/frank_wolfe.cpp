#include <algorithm>
#include <cmath>

#include "backend_runs.h"
#include "stackroute/network/dijkstra.h"
#include "stackroute/network/paths.h"
#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/parallel.h"
#include "stackroute/util/scalar.h"

namespace stackroute {

namespace {

/// Iteration cap; SolveBudget::max_iters caps the run below it.
constexpr int kMaxIters = 100000;

/// All-or-nothing assignment at the given costs: every commodity's demand
/// on its cheapest path. Writes edge flows into `flow_out` (sized |E|),
/// fills ws.paths/ws.dists, and returns c·y.
double all_or_nothing(const NetworkInstance& inst,
                      std::span<const double> costs, SolverWorkspace& ws,
                      std::span<double> flow_out) {
  const Graph& g = inst.graph;
  const std::size_t k = inst.commodities.size();
  if (ws.paths.size() < k) ws.paths.resize(k);
  ws.dists.assign(k, 0.0);
  obs::ScopedSpan span("all_or_nothing");
  // Counter tallies must be thread-count invariant: the workers write
  // per-commodity settled counts into scratch, and the calling thread sums
  // them in index order after the join (obs sinks are thread-local, so
  // counting from inside the lambda would lose the workers' shares).
  const bool counting = obs::counting();
  if (counting) ws.settled_scratch.assign(k, 0);
  parallel_for(
      k,
      [&](std::size_t i) {
        thread_local DijkstraWorkspace dijkstra_ws;
        const Commodity& com = inst.commodities[i];
        const ShortestPathTree& tree =
            dijkstra(g, com.source, costs, dijkstra_ws);
        extract_path_into(g, tree, com.sink, ws.paths[i]);
        ws.dists[i] = tree.dist[static_cast<std::size_t>(com.sink)];
        if (counting) ws.settled_scratch[i] = dijkstra_ws.settled;
      },
      /*grain=*/1);
  if (counting) {
    std::uint64_t settled = 0;
    for (std::uint64_t s : ws.settled_scratch) settled += s;
    obs::count(&obs::SolveCounters::dijkstra_calls, k);
    obs::count(&obs::SolveCounters::dijkstra_settled, settled);
  }

  std::fill(flow_out.begin(), flow_out.end(), 0.0);
  double cost = 0.0;  // c·y
  for (std::size_t i = 0; i < k; ++i) {
    const double d = inst.commodities[i].demand;
    for (EdgeId e : ws.paths[i]) flow_out[static_cast<std::size_t>(e)] += d;
    cost += d * ws.dists[i];
  }
  return cost;
}

/// Frank–Wolfe's warm contract is proportionality of the commodity split
/// (see frank_wolfe.h) — a bare edge flow cannot prove it, so the warm
/// state carries the demand snapshot and this check compares against it.
/// On success `warm_total_demand` is the total the seed was converged at.
bool fw_seed_usable(const EquilibriumWarmState& warm,
                    const NetworkInstance& inst, double& warm_total_demand) {
  const auto ne = static_cast<std::size_t>(inst.graph.num_edges());
  if (warm.fw_flow.size() != ne) return false;
  if (warm.fw_demands.size() != inst.commodities.size()) return false;
  warm_total_demand = 0.0;
  for (double d : warm.fw_demands) warm_total_demand += d;
  if (!(warm_total_demand > 0.0)) return false;
  const double ratio = inst.total_demand() / warm_total_demand;
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    const double got = inst.commodities[i].demand;
    if (std::fabs(got - warm.fw_demands[i] * ratio) >
        1e-12 * std::fmax(1.0, std::fabs(got))) {
      return false;
    }
  }
  return true;
}

}  // namespace

/// One Frank–Wolfe run (seed + iterate).
EquilibriumResult detail::fw_run(const NetworkInstance& inst,
                                 const EquilibriumRequest& req,
                                 BudgetGate& gate, SolverWorkspace& ws,
                                 const EquilibriumWarmState* warm,
                                 bool& used_warm) {
  const FrankWolfeOptions& opts = req.frank_wolfe;
  const FlowObjective objective = req.objective;
  double warm_total_demand = 0.0;
  const bool seeded =
      warm != nullptr && fw_seed_usable(*warm, inst, warm_total_demand);
  const LatencyTable& table = ws.table;
  const auto ne = static_cast<std::size_t>(inst.graph.num_edges());
  ws.costs.resize(ne);
  ws.aon_flow.resize(ne);
  ws.direction.resize(ne);

  EquilibriumResult result;
  used_warm = false;
  const double factor =
      seeded ? inst.total_demand() / warm_total_demand : 0.0;
  if (seeded) obs::count(&obs::SolveCounters::warm_attempts);
  if (factor > 0.0 && std::isfinite(factor)) {
    obs::count(&obs::SolveCounters::warm_hits);
    used_warm = true;
    // Demand-rescaling projection of the prior converged flow.
    result.edge_flow.resize(ne);
    for (std::size_t e = 0; e < ne; ++e) {
      result.edge_flow[e] = std::fmax(0.0, warm->fw_flow[e] * factor);
    }
  } else {
    // Cold start: AON at empty-network costs.
    result.edge_flow.assign(ne, 0.0);
    edge_costs(table, result.edge_flow, objective, ws.costs);
    all_or_nothing(inst, ws.costs, ws, ws.aon_flow);
    std::copy(ws.aon_flow.begin(), ws.aon_flow.end(),
              result.edge_flow.begin());
  }

  // Line-search probe tally: unconditional local increments (cheaper than
  // a thread-local test per probe), published once after the loop.
  std::uint64_t ls_evals = 0;
  const bool tracing = obs::convergence() != nullptr;
  result.rel_gap = kInf;
  result.status = SolveStatus::kIterLimit;  // until proven otherwise

  for (int iter = 1; iter <= kMaxIters; ++iter) {
    if (gate.over_iters(iter - 1)) break;  // budget cap below kMaxIters
    if (gate.expired()) {
      result.status = SolveStatus::kDeadlineExceeded;
      break;
    }
    result.iterations = iter;
    edge_costs(table, result.edge_flow, objective, ws.costs);

    // c·f before the Dijkstras: flow >= 0 everywhere, so any NaN/Inf cost
    // makes cf non-finite (0 * NaN and 0 * Inf are both NaN) — one check
    // catches corrupt costs before shortest paths run on them.
    double cf = 0.0;
    for (std::size_t e = 0; e < ne; ++e) {
      cf += ws.costs[e] * result.edge_flow[e];
    }
    if (!std::isfinite(cf)) {
      result.status = SolveStatus::kNumericFailure;
      break;
    }
    const double aon_cost = all_or_nothing(inst, ws.costs, ws, ws.aon_flow);

    result.rel_gap = (cf - aon_cost) / std::fmax(std::fabs(cf), 1e-300);
    if (!std::isfinite(result.rel_gap)) {
      result.status = SolveStatus::kNumericFailure;
      break;
    }
    if (result.rel_gap <= opts.rel_gap_tol) {
      result.status = SolveStatus::kConverged;
      if (tracing) {
        obs::record_convergence(
            iter, result.rel_gap, 0.0,
            objective_value(table, result.edge_flow, objective));
      }
      break;
    }

    ws.nonzero.clear();
    for (std::size_t e = 0; e < ne; ++e) {
      ws.direction[e] = ws.aon_flow[e] - result.edge_flow[e];
      if (ws.direction[e] != 0.0) ws.nonzero.push_back(static_cast<EdgeId>(e));
    }
    double theta = 0.0;
    {  // exact line search; the block bounds the line_search span
      // g'(theta) = sum_e d_e * cost_e(f + theta*d): increasing in theta.
      // Only edges with d_e != 0 contribute; the index list keeps each
      // bisection probe O(nnz) instead of O(m). On homogeneous-affine
      // tables the probe runs four independent partial sums (the serial
      // accumulator chain is the latency bottleneck); the partials combine
      // in a fixed order, so the search stays fully deterministic.
      auto dg = [&](double th) {
        ++ls_evals;
        double acc = 0.0;
        for (EdgeId id : ws.nonzero) {
          const auto e = static_cast<std::size_t>(id);
          const double x = result.edge_flow[e] + th * ws.direction[e];
          acc += ws.direction[e] * edge_cost_at(table, e, x, objective);
        }
        return acc;
      };
      auto dg_affine = [&](double th) {
        ++ls_evals;
        const std::size_t n = ws.nonzero.size();
        double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
        std::size_t j = 0;
        const auto term = [&](std::size_t lane_e) {
          const double d = ws.direction[lane_e];
          const double x = result.edge_flow[lane_e] + th * d;
          return d * edge_cost_at(table, lane_e, x, objective);
        };
        for (; j + 4 <= n; j += 4) {
          acc0 += term(static_cast<std::size_t>(ws.nonzero[j]));
          acc1 += term(static_cast<std::size_t>(ws.nonzero[j + 1]));
          acc2 += term(static_cast<std::size_t>(ws.nonzero[j + 2]));
          acc3 += term(static_cast<std::size_t>(ws.nonzero[j + 3]));
        }
        for (; j < n; ++j) {
          acc0 += term(static_cast<std::size_t>(ws.nonzero[j]));
        }
        return (acc0 + acc1) + (acc2 + acc3);
      };
      obs::ScopedSpan ls_span("line_search");
      if (table.homogeneous_affine()) {
        theta = dg_affine(1.0) <= 0.0
                    ? 1.0
                    : bisect_increasing(dg_affine, 0.0, 1.0, 1e-14, 80);
      } else {
        theta =
            dg(1.0) <= 0.0 ? 1.0 : bisect_increasing(dg, 0.0, 1.0, 1e-14, 80);
      }
    }
    if (theta <= 0.0) {
      result.status = SolveStatus::kConverged;  // stationary
      if (tracing) {
        obs::record_convergence(
            iter, result.rel_gap, 0.0,
            objective_value(table, result.edge_flow, objective));
      }
      break;
    }
    for (std::size_t e = 0; e < ne; ++e) {
      result.edge_flow[e] =
          std::fmax(0.0, result.edge_flow[e] + theta * ws.direction[e]);
    }
    if (tracing) {
      obs::record_convergence(
          iter, result.rel_gap, theta,
          objective_value(table, result.edge_flow, objective));
    }
  }
  result.objective = objective_value(table, result.edge_flow, objective);
  obs::count(&obs::SolveCounters::fw_iterations,
             static_cast<std::uint64_t>(result.iterations));
  obs::count(&obs::SolveCounters::gap_checks,
             static_cast<std::uint64_t>(result.iterations));
  obs::count(&obs::SolveCounters::fw_line_search_evals, ls_evals);
  return result;
}

}  // namespace stackroute
