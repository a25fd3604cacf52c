// Frank–Wolfe (the kFrankWolfe solve_equilibrium backend) as an
// independent cross-check of the path-equilibration solver, plus its own
// convergence diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/network/generators.h"
#include "stackroute/solver/backend.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

EquilibriumRequest fw_request(FlowObjective objective,
                              const FrankWolfeOptions& opts = {}) {
  EquilibriumRequest req;
  req.backend = EquilibriumBackend::kFrankWolfe;
  req.objective = objective;
  req.frank_wolfe = opts;
  return req;
}

TEST(FrankWolfe, PigouNash) {
  const NetworkInstance inst = to_network(pigou());
  const auto r = solve_equilibrium(inst, fw_request(FlowObjective::kBeckmann));
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NEAR(r.edge_flow[0], 1.0, 1e-4);
  EXPECT_NEAR(r.edge_flow[1], 0.0, 1e-4);
}

TEST(FrankWolfe, PigouOptimum) {
  const NetworkInstance inst = to_network(pigou());
  const auto r = solve_equilibrium(inst, fw_request(FlowObjective::kTotalCost));
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NEAR(r.edge_flow[0], 0.5, 1e-4);
  EXPECT_NEAR(r.edge_flow[1], 0.5, 1e-4);
}

TEST(FrankWolfe, AgreesWithPathEquilibrationOnFig7) {
  const NetworkInstance inst = fig7_instance(0.05);
  const auto fw =
      solve_equilibrium(inst, fw_request(FlowObjective::kTotalCost));
  const auto pe = solve_equilibrium(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(solve_ok(fw.status));
  EXPECT_TRUE(solve_ok(pe.status));
  EXPECT_NEAR(max_abs_diff(fw.edge_flow, pe.edge_flow), 0.0, 5e-3);
}

TEST(FrankWolfe, AgreesWithPathEquilibrationOnRandomGrid) {
  Rng rng(71);
  const NetworkInstance inst = grid_city(rng, 3, 4, 1.5);
  const auto fw = solve_equilibrium(inst, fw_request(FlowObjective::kBeckmann));
  const auto pe = solve_equilibrium(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(solve_ok(fw.status));
  EXPECT_TRUE(solve_ok(pe.status));
  EXPECT_NEAR(max_abs_diff(fw.edge_flow, pe.edge_flow), 0.0, 2e-2);
}

TEST(FrankWolfe, GapDecreasesWithMoreIterations) {
  Rng rng(72);
  const NetworkInstance inst = grid_city(rng, 4, 4, 3.0);
  FrankWolfeOptions opts;
  opts.rel_gap_tol = 0.0;
  EquilibriumRequest coarse = fw_request(FlowObjective::kBeckmann, opts);
  coarse.budget.max_iters = 30;
  EquilibriumRequest fine = coarse;
  fine.budget.max_iters = 3000;
  const auto a = solve_equilibrium(inst, coarse);
  const auto b = solve_equilibrium(inst, fine);
  EXPECT_LT(b.rel_gap, a.rel_gap);
  EXPECT_LE(b.objective, a.objective + 1e-12);
}

TEST(FrankWolfe, PreloadMatchesPathEquilibration) {
  NetworkInstance inst = fig7_instance(0.05);
  inst.commodities[0].demand = 0.4;
  const std::vector<double> preload = {0.3, 0.3, 0.0, 0.3, 0.3};
  const auto fw = solve_equilibrium(
      inst, fw_request(FlowObjective::kBeckmann), preload);
  const auto pe = solve_equilibrium(inst, FlowObjective::kBeckmann, preload);
  EXPECT_NEAR(max_abs_diff(fw.edge_flow, pe.edge_flow), 0.0, 5e-3);
}

TEST(FrankWolfe, MultiCommodityConverges) {
  Rng rng(74);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 4, 3, 0.2, 0.6);
  FrankWolfeOptions opts;
  opts.rel_gap_tol = 1e-5;
  const auto r =
      solve_equilibrium(inst, fw_request(FlowObjective::kBeckmann, opts));
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_LE(r.rel_gap, 1e-5);
}


TEST(FrankWolfe, WarmStartConvergesToTheSameObjective) {
  Rng rng(11);
  const NetworkInstance base = grid_city(rng, 5, 5, 2.0);
  SolverWorkspace ws;
  FrankWolfeOptions opts;
  opts.rel_gap_tol = 1e-5;
  const EquilibriumRequest req = fw_request(FlowObjective::kBeckmann, opts);
  // The prior solve publishes its converged flow and the demands it routed.
  EquilibriumWarmState prior;
  (void)solve_equilibrium(base, {}, req, ws, nullptr, &prior);

  NetworkInstance scaled = base;
  for (auto& c : scaled.commodities) c.demand *= 1.25;
  const EquilibriumResult warm =
      solve_equilibrium(scaled, {}, req, ws, &prior, nullptr);
  const EquilibriumResult cold =
      solve_equilibrium(scaled, {}, req, ws, nullptr, nullptr);
  EXPECT_TRUE(solve_ok(warm.status));
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-4 * std::fmax(1.0, cold.objective));
  // Warm iterates start next to the solution; it must not cost more
  // iterations than the all-or-nothing bootstrap.
  EXPECT_LE(warm.iterations, cold.iterations);

  // A size-mismatched warm flow quietly falls back to the cold start.
  EquilibriumWarmState mismatched = prior;
  mismatched.fw_flow.assign(3, 1.0);
  const EquilibriumResult fallback =
      solve_equilibrium(scaled, {}, req, ws, &mismatched, nullptr);
  EXPECT_EQ(fallback.iterations, cold.iterations);
  EXPECT_EQ(fallback.objective, cold.objective);
}

}  // namespace
}  // namespace stackroute
