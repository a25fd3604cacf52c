// Path-equilibration solver (the default solve_equilibrium backend)
// against closed-form instances (Pigou as a network, classic Braess, Fig 7)
// and structural invariants on random networks.
#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/latency/families.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/backend.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

double commodity_total(const std::vector<PathFlow>& paths) {
  double total = 0.0;
  for (const auto& pf : paths) total += pf.flow;
  return total;
}

TEST(AssignTraffic, PigouAsNetworkNash) {
  const NetworkInstance inst = to_network(pigou());
  const auto r = solve_equilibrium(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NEAR(r.edge_flow[0], 1.0, 1e-8);
  EXPECT_NEAR(r.edge_flow[1], 0.0, 1e-8);
}

TEST(AssignTraffic, PigouAsNetworkOptimum) {
  const NetworkInstance inst = to_network(pigou());
  const auto r = solve_equilibrium(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NEAR(r.edge_flow[0], 0.5, 1e-8);
  EXPECT_NEAR(r.edge_flow[1], 0.5, 1e-8);
}

TEST(AssignTraffic, BraessClassicNashCostTwo) {
  const NetworkInstance inst = braess_classic();
  const auto r = solve_equilibrium(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(solve_ok(r.status));
  // All flow on the zigzag s->v->w->t: edges 0, 2, 4.
  EXPECT_NEAR(r.edge_flow[0], 1.0, 1e-7);
  EXPECT_NEAR(r.edge_flow[2], 1.0, 1e-7);
  EXPECT_NEAR(r.edge_flow[4], 1.0, 1e-7);
  EXPECT_NEAR(r.edge_flow[1], 0.0, 1e-7);
  EXPECT_NEAR(r.edge_flow[3], 0.0, 1e-7);
}

TEST(AssignTraffic, BraessClassicOptimumSplitsAndSkipsShortcut) {
  const NetworkInstance inst = braess_classic();
  const auto r = solve_equilibrium(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NEAR(r.edge_flow[0], 0.5, 1e-7);
  EXPECT_NEAR(r.edge_flow[1], 0.5, 1e-7);
  EXPECT_NEAR(r.edge_flow[2], 0.0, 1e-7);  // shortcut unused at optimum
  EXPECT_NEAR(r.edge_flow[3], 0.5, 1e-7);
  EXPECT_NEAR(r.edge_flow[4], 0.5, 1e-7);
}

TEST(AssignTraffic, BraessWithoutShortcutNashIsBetter) {
  const auto with =
      solve_equilibrium(braess_classic(), FlowObjective::kBeckmann);
  const auto without =
      solve_equilibrium(braess_without_shortcut(), FlowObjective::kBeckmann);
  const auto cost_of = [](const NetworkInstance& inst,
                          const std::vector<double>& f) {
    double c = 0.0;
    for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
      c += f[static_cast<std::size_t>(e)] *
           inst.graph.edge(e).latency->value(f[static_cast<std::size_t>(e)]);
    }
    return c;
  };
  const double c_with = cost_of(braess_classic(), with.edge_flow);
  const double c_without =
      cost_of(braess_without_shortcut(), without.edge_flow);
  EXPECT_NEAR(c_with, 2.0, 1e-6);      // the paradox: adding the edge hurts
  EXPECT_NEAR(c_without, 1.5, 1e-6);
}

TEST(AssignTraffic, Fig7OptimumMatchesCaption) {
  for (double eps : {0.0, 0.02, 0.1}) {
    const NetworkInstance inst = fig7_instance(eps);
    const Fig7Expected expected = fig7_expected(eps);
    const auto r = solve_equilibrium(inst, FlowObjective::kTotalCost);
    EXPECT_TRUE(solve_ok(r.status));
    for (std::size_t e = 0; e < 5; ++e) {
      EXPECT_NEAR(r.edge_flow[e], expected.optimum_edges[e], 2e-7)
          << "eps=" << eps << " edge " << e;
    }
  }
}

TEST(AssignTraffic, Fig7NashMatchesDerivation) {
  // Derived in generators.h: f_zigzag = 1−4ε, outer paths 2ε each, all
  // used paths at latency 3−8ε.
  const double eps = 0.05;
  const NetworkInstance inst = fig7_instance(eps);
  const auto r = solve_equilibrium(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NEAR(r.edge_flow[2], 1.0 - 4.0 * eps, 1e-7);  // v->w carries f0
  EXPECT_NEAR(r.edge_flow[1], 2.0 * eps, 1e-7);        // s->w carries f2
}

TEST(AssignTraffic, PathsDecomposeTheEdgeFlow) {
  Rng rng(31);
  const NetworkInstance inst = random_layered_dag(rng, 3, 3, 0.6, 1.5);
  const auto r = solve_equilibrium(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NEAR(commodity_total(r.commodity_paths[0]), 1.5, 1e-9);
  std::vector<double> rebuilt(static_cast<std::size_t>(inst.graph.num_edges()),
                              0.0);
  for (const auto& pf : r.commodity_paths[0]) {
    for (EdgeId e : pf.path) rebuilt[static_cast<std::size_t>(e)] += pf.flow;
  }
  EXPECT_NEAR(max_abs_diff(rebuilt, r.edge_flow), 0.0, 1e-9);
}

TEST(AssignTraffic, UsedPathsShareTheMinimumCost) {
  Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    const NetworkInstance inst = random_layered_dag(rng, 3, 4, 0.5, 2.0);
    const auto r = solve_equilibrium(inst, FlowObjective::kBeckmann);
    ASSERT_TRUE(solve_ok(r.status));
    std::vector<double> lat(static_cast<std::size_t>(inst.graph.num_edges()));
    for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
      lat[static_cast<std::size_t>(e)] =
          inst.graph.edge(e).latency->value(
              r.edge_flow[static_cast<std::size_t>(e)]);
    }
    double lo = kInf, hi = -kInf;
    for (const auto& pf : r.commodity_paths[0]) {
      if (pf.flow <= 1e-9) continue;
      const double c = path_cost(lat, pf.path);
      lo = std::fmin(lo, c);
      hi = std::fmax(hi, c);
    }
    EXPECT_LE(hi - lo, 1e-7) << "trial " << trial;
  }
}

TEST(AssignTraffic, MultiCommodityConservesAllDemands) {
  Rng rng(33);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 4, 4, 0.3, 0.8);
  const auto r = solve_equilibrium(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(solve_ok(r.status));
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    EXPECT_NEAR(commodity_total(r.commodity_paths[i]),
                inst.commodities[i].demand, 1e-9);
  }
}

TEST(AssignTraffic, PreloadShiftsTheEquilibrium) {
  // Pigou with the optimum preloaded on the constant link: followers get
  // demand 1/2 and should now keep the fast link at 1/2 (the Fig. 2-3
  // story in network form).
  NetworkInstance inst = to_network(pigou());
  inst.commodities[0].demand = 0.5;  // followers only
  const std::vector<double> preload = {0.0, 0.5};
  const auto r = solve_equilibrium(inst, FlowObjective::kBeckmann, preload);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NEAR(r.edge_flow[0], 0.5, 1e-8);
  EXPECT_NEAR(r.edge_flow[1], 0.0, 1e-8);
}

TEST(AssignTraffic, ObjectiveDecreasesVsAllOrNothingStart) {
  Rng rng(34);
  const NetworkInstance inst = grid_city(rng, 3, 3, 2.0);
  const auto nash = solve_equilibrium(inst, FlowObjective::kBeckmann);
  const auto opt = solve_equilibrium(inst, FlowObjective::kTotalCost);
  const std::vector<LatencyPtr> lat = inst.graph.latencies();
  // System cost at optimum <= system cost at Nash.
  EXPECT_LE(total_cost(lat, opt.edge_flow),
            total_cost(lat, nash.edge_flow) + 1e-9);
}

TEST(AssignTraffic, InvalidInstanceThrows) {
  NetworkInstance inst;
  inst.graph = Graph(2);
  inst.graph.add_edge(0, 1, make_linear(1.0));
  EXPECT_THROW(solve_equilibrium(inst, FlowObjective::kBeckmann), Error);
}


TEST(AssignTraffic, WarmStartMatchesColdSolution) {
  Rng rng(5);
  const NetworkInstance base = grid_city(rng, 5, 5, 2.0);
  SolverWorkspace ws;
  const EquilibriumRequest req{};
  const EquilibriumResult prior =
      solve_equilibrium(base, {}, req, ws, nullptr, nullptr);

  NetworkInstance scaled = base;
  for (auto& c : scaled.commodities) c.demand *= 1.35;
  EquilibriumWarmState warm;
  warm.paths.commodity_paths = prior.commodity_paths;
  for (const auto& c : base.commodities) {
    warm.paths.demands.push_back(c.demand);
  }

  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  const EquilibriumResult w =
      solve_equilibrium(scaled, {}, req, ws, &warm, nullptr);
  const EquilibriumResult c =
      solve_equilibrium(scaled, {}, req, ws, nullptr, nullptr);
  EXPECT_TRUE(solve_ok(w.status));
  ASSERT_EQ(w.edge_flow.size(), c.edge_flow.size());
  for (std::size_t e = 0; e < w.edge_flow.size(); ++e) {
    EXPECT_NEAR(w.edge_flow[e], c.edge_flow[e], 1e-6) << "edge " << e;
  }
  EXPECT_NEAR(w.objective, c.objective, 1e-8 * std::fmax(1.0, c.objective));
  // The whole point: the warm solve pays far fewer exact equalization
  // steps than the cold one.
  EXPECT_LT(w.counters.equalization_steps, c.counters.equalization_steps);
  // Demands conserved exactly per commodity.
  for (std::size_t i = 0; i < scaled.commodities.size(); ++i) {
    double total = 0.0;
    for (const PathFlow& pf : w.commodity_paths[i]) total += pf.flow;
    EXPECT_NEAR(total, scaled.commodities[i].demand,
                1e-9 * std::fmax(1.0, scaled.commodities[i].demand));
  }
}

TEST(AssignTraffic, IllFittingWarmPayloadFallsBackToColdBitwise) {
  Rng rng(6);
  const NetworkInstance inst = grid_city(rng, 4, 4, 1.5);
  SolverWorkspace ws;
  EquilibriumRequest req;
  req.objective = FlowObjective::kTotalCost;
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  const EquilibriumResult cold =
      solve_equilibrium(inst, {}, req, ws, nullptr, nullptr);

  // Wrong commodity count, a foreign path, and a demand the paths do not
  // decompose: each must be rejected up front, yielding the cold result
  // bit for bit.
  std::vector<EquilibriumWarmState> bad(3);
  bad[0].paths.commodity_paths.resize(inst.commodities.size() + 1);
  bad[0].paths.demands.assign(inst.commodities.size() + 1, 1.0);

  bad[1].paths.commodity_paths.resize(inst.commodities.size());
  bad[1].paths.demands.assign(inst.commodities.size(), 1.5);
  bad[1].paths.commodity_paths[0].push_back(
      PathFlow{Path{static_cast<EdgeId>(0)}, 1.5});  // not an s-t path

  bad[2].paths.commodity_paths = cold.commodity_paths;
  for (const auto& c : inst.commodities) {
    bad[2].paths.demands.push_back(c.demand);
  }
  bad[2].paths.demands[0] *= 3.0;  // lies about the decomposed demand

  for (const auto& warm : bad) {
    const EquilibriumResult r =
        solve_equilibrium(inst, {}, req, ws, &warm, nullptr);
    ASSERT_EQ(r.edge_flow.size(), cold.edge_flow.size());
    for (std::size_t e = 0; e < r.edge_flow.size(); ++e) {
      EXPECT_EQ(r.edge_flow[e], cold.edge_flow[e]);
    }
    EXPECT_EQ(r.counters.equalization_steps, cold.counters.equalization_steps);
  }
}

}  // namespace
}  // namespace stackroute
