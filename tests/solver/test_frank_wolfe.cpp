// Frank–Wolfe as an independent cross-check of the path-equilibration
// solver, plus its own convergence diagnostics.
#include "stackroute/solver/frank_wolfe.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/network/generators.h"
#include "stackroute/solver/traffic_assignment.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

TEST(FrankWolfe, PigouNash) {
  const NetworkInstance inst = to_network(pigou());
  const auto r = frank_wolfe(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NEAR(r.edge_flow[0], 1.0, 1e-4);
  EXPECT_NEAR(r.edge_flow[1], 0.0, 1e-4);
}

TEST(FrankWolfe, PigouOptimum) {
  const NetworkInstance inst = to_network(pigou());
  const auto r = frank_wolfe(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NEAR(r.edge_flow[0], 0.5, 1e-4);
  EXPECT_NEAR(r.edge_flow[1], 0.5, 1e-4);
}

TEST(FrankWolfe, AgreesWithPathEquilibrationOnFig7) {
  const NetworkInstance inst = fig7_instance(0.05);
  const auto fw = frank_wolfe(inst, FlowObjective::kTotalCost);
  const auto pe = assign_traffic(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(solve_ok(fw.status));
  EXPECT_TRUE(solve_ok(pe.status));
  EXPECT_NEAR(max_abs_diff(fw.edge_flow, pe.edge_flow), 0.0, 5e-3);
}

TEST(FrankWolfe, AgreesWithPathEquilibrationOnRandomGrid) {
  Rng rng(71);
  const NetworkInstance inst = grid_city(rng, 3, 4, 1.5);
  const auto fw = frank_wolfe(inst, FlowObjective::kBeckmann);
  const auto pe = assign_traffic(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(solve_ok(fw.status));
  EXPECT_TRUE(solve_ok(pe.status));
  EXPECT_NEAR(max_abs_diff(fw.edge_flow, pe.edge_flow), 0.0, 2e-2);
}

TEST(FrankWolfe, GapDecreasesWithMoreIterations) {
  Rng rng(72);
  const NetworkInstance inst = grid_city(rng, 4, 4, 3.0);
  FrankWolfeOptions coarse;
  coarse.max_iters = 30;
  coarse.rel_gap_tol = 0.0;
  FrankWolfeOptions fine = coarse;
  fine.max_iters = 3000;
  const auto a = frank_wolfe(inst, FlowObjective::kBeckmann, {}, coarse);
  const auto b = frank_wolfe(inst, FlowObjective::kBeckmann, {}, fine);
  EXPECT_LT(b.rel_gap, a.rel_gap);
  EXPECT_LE(b.objective, a.objective + 1e-12);
}

TEST(FrankWolfe, ExactLineSearchBeatsHarmonicAtEqualBudget) {
  Rng rng(73);
  const NetworkInstance inst = grid_city(rng, 4, 4, 3.0);
  FrankWolfeOptions exact;
  exact.max_iters = 200;
  exact.rel_gap_tol = 0.0;
  FrankWolfeOptions harmonic = exact;
  harmonic.step_rule = FwStepRule::kHarmonic;
  const auto a = frank_wolfe(inst, FlowObjective::kBeckmann, {}, exact);
  const auto b = frank_wolfe(inst, FlowObjective::kBeckmann, {}, harmonic);
  EXPECT_LE(a.objective, b.objective + 1e-12);
}

TEST(FrankWolfe, PreloadMatchesPathEquilibration) {
  NetworkInstance inst = fig7_instance(0.05);
  inst.commodities[0].demand = 0.4;
  const std::vector<double> preload = {0.3, 0.3, 0.0, 0.3, 0.3};
  const auto fw = frank_wolfe(inst, FlowObjective::kBeckmann, preload);
  const auto pe = assign_traffic(inst, FlowObjective::kBeckmann, preload);
  EXPECT_NEAR(max_abs_diff(fw.edge_flow, pe.edge_flow), 0.0, 5e-3);
}

TEST(FrankWolfe, MultiCommodityConverges) {
  Rng rng(74);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 4, 3, 0.2, 0.6);
  FrankWolfeOptions opts;
  opts.rel_gap_tol = 1e-5;
  const auto r = frank_wolfe(inst, FlowObjective::kBeckmann, {}, opts);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_LE(r.rel_gap, 1e-5);
}


TEST(FrankWolfe, WarmStartConvergesToTheSameObjective) {
  Rng rng(11);
  const NetworkInstance base = grid_city(rng, 5, 5, 2.0);
  SolverWorkspace ws;
  FrankWolfeOptions opts;
  opts.rel_gap_tol = 1e-5;
  const FrankWolfeResult prior =
      frank_wolfe(base, FlowObjective::kBeckmann, {}, opts, ws);

  NetworkInstance scaled = base;
  for (auto& c : scaled.commodities) c.demand *= 1.25;
  const FrankWolfeResult warm =
      frank_wolfe(scaled, FlowObjective::kBeckmann, {}, opts, ws,
                  prior.edge_flow, base.total_demand());
  const FrankWolfeResult cold =
      frank_wolfe(scaled, FlowObjective::kBeckmann, {}, opts, ws);
  EXPECT_TRUE(solve_ok(warm.status));
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-4 * std::fmax(1.0, cold.objective));
  // Warm iterates start next to the solution; it must not cost more
  // iterations than the all-or-nothing bootstrap.
  EXPECT_LE(warm.iterations, cold.iterations);

  // A size-mismatched warm flow quietly falls back to the cold start.
  const FrankWolfeResult fallback = frank_wolfe(
      scaled, FlowObjective::kBeckmann, {}, opts, ws,
      std::vector<double>(3, 1.0), base.total_demand());
  EXPECT_EQ(fallback.iterations, cold.iterations);
  EXPECT_EQ(fallback.objective, cold.objective);
}

}  // namespace
}  // namespace stackroute
