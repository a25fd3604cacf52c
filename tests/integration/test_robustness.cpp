// Robustness: failure injection on every public entry point, determinism
// of full pipelines, and numerically nasty-but-legal instances.
#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/core/mop.h"
#include "stackroute/core/optop.h"
#include "stackroute/core/strategy.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

// ---- failure injection ----------------------------------------------------

TEST(Robustness, NonFiniteParametersRejected) {
  const double nan = std::nan("");
  EXPECT_THROW(make_affine(nan, 0.0), Error);
  EXPECT_THROW(make_affine(1.0, nan), Error);
  EXPECT_THROW(make_constant(nan), Error);
  EXPECT_THROW(make_mm1(nan), Error);
  EXPECT_THROW(make_polynomial({1.0, nan}), Error);
}

TEST(Robustness, NonFiniteDemandRejected) {
  ParallelLinks m{{make_linear(1.0)}, std::nan("")};
  EXPECT_THROW(m.validate(), Error);
  m.demand = kInf;
  EXPECT_THROW(m.validate(), Error);
}

TEST(Robustness, NegativeStrategyRejectedEverywhere) {
  const ParallelLinks m = pigou();
  const std::vector<double> bad = {-0.1, 0.6};
  EXPECT_THROW(solve_induced(m, bad), Error);
  EXPECT_THROW(evaluate_strategy(m, bad), Error);
}

TEST(Robustness, OverDemandStrategyRejected) {
  const ParallelLinks m = pigou();
  const std::vector<double> bad = {0.9, 0.9};
  EXPECT_THROW(solve_induced(m, bad), Error);
}

TEST(Robustness, MopRejectsPreloadSizeMismatch) {
  const NetworkInstance inst = fig7_instance(0.05);
  const std::vector<double> bad(3, 0.1);
  EXPECT_THROW(solve_equilibrium(inst, FlowObjective::kBeckmann, bad), Error);
}

TEST(Robustness, EmptyNetworkRejected) {
  NetworkInstance inst;
  EXPECT_THROW(inst.validate(), Error);
  EXPECT_THROW(mop(inst), Error);
}

// ---- determinism ------------------------------------------------------------

TEST(Robustness, OpTopIsDeterministic) {
  Rng rng(300);
  const ParallelLinks m = random_polynomial_links(rng, 8, 2.0);
  const OpTopResult a = op_top(m);
  const OpTopResult b = op_top(m);
  EXPECT_EQ(a.beta, b.beta);  // bitwise: same inputs, same arithmetic
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.induced, b.induced);
}

TEST(Robustness, MopIsDeterministic) {
  Rng rng(301);
  const NetworkInstance inst = grid_city(rng, 3, 4, 1.5);
  const MopResult a = mop(inst);
  const MopResult b = mop(inst);
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.leader_edge_flow, b.leader_edge_flow);
}

TEST(Robustness, GeneratorsAreSeedDeterministic) {
  Rng rng1(302), rng2(302);
  const ParallelLinks a = random_affine_links(rng1, 6, 1.0);
  const ParallelLinks b = random_affine_links(rng2, 6, 1.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.links[i]->params(), b.links[i]->params());
  }
}

// ---- numerically nasty instances -------------------------------------------

TEST(Robustness, ExtremeSlopeContrast) {
  // Slopes spanning 8 orders of magnitude.
  const ParallelLinks m{{make_linear(1e-6), make_linear(1e2)}, 1.0};
  const LinkAssignment n = solve_nash(m);
  EXPECT_TRUE(satisfies_wardrop(m, n.flows, 1e-5));
  const OpTopResult r = op_top(m);
  EXPECT_NEAR(r.induced_cost, r.optimum_cost,
              1e-6 * std::fmax(1.0, r.optimum_cost));
}

TEST(Robustness, TinyAndHugeDemands) {
  for (double demand : {1e-9, 1e6}) {
    ParallelLinks m{{make_linear(1.0), make_affine(2.0, 0.1)}, demand};
    const LinkAssignment n = solve_nash(m);
    EXPECT_NEAR(sum(n.flows), demand, 1e-9 * std::fmax(1.0, demand));
    EXPECT_TRUE(satisfies_wardrop(m, n.flows,
                                  1e-7 * std::fmax(1.0, demand)));
  }
}

TEST(Robustness, ManyIdenticalConstantLinks) {
  // Remark 2.5 stress: plateau split across 50 identical constants plus
  // one increasing link.
  ParallelLinks m;
  m.links.push_back(make_linear(1.0));
  for (int i = 0; i < 50; ++i) m.links.push_back(make_constant(0.5));
  m.demand = 10.0;
  const LinkAssignment n = solve_nash(m);
  EXPECT_NEAR(n.flows[0], 0.5, 1e-9);  // fast link rises to the plateau
  for (std::size_t i = 1; i < m.size(); ++i) {
    EXPECT_NEAR(n.flows[i], 9.5 / 50.0, 1e-9);
  }
  EXPECT_NEAR(cost(m, n.flows), 10.0 * 0.5, 1e-8);
}

TEST(Robustness, NearCapacityMm1) {
  // Demand at 99% of total capacity: still solvable, Wardrop holds.
  const ParallelLinks m{{make_mm1(1.0), make_mm1(2.0)}, 0.99 * 3.0};
  const LinkAssignment n = solve_nash(m);
  EXPECT_TRUE(satisfies_wardrop(m, n.flows, 1e-4));
  EXPECT_LT(n.flows[0], 1.0);
  EXPECT_LT(n.flows[1], 2.0);
  const OpTopResult r = op_top(m);
  EXPECT_LE(r.beta, 1.0);
}

TEST(Robustness, DuplicateLinksSplitEvenlyAtOptimum) {
  // Optimum on identical strictly-increasing links must balance exactly.
  ParallelLinks m;
  for (int i = 0; i < 7; ++i) m.links.push_back(make_monomial(2.0, 3));
  m.demand = 3.5;
  const LinkAssignment o = solve_optimum(m);
  for (double f : o.flows) EXPECT_NEAR(f, 0.5, 1e-9);
}

TEST(Robustness, SingleLinkInstanceIsTrivial) {
  const ParallelLinks m{{make_linear(2.0)}, 1.5};
  const OpTopResult r = op_top(m);
  EXPECT_NEAR(r.beta, 0.0, 1e-12);
  EXPECT_NEAR(r.nash_cost, r.optimum_cost, 1e-12);
}

TEST(Robustness, ParallelEdgesInNetworks) {
  // Two-node network with parallel edges of different families.
  NetworkInstance inst;
  inst.graph = Graph(2);
  inst.graph.add_edge(0, 1, make_linear(1.0));
  inst.graph.add_edge(0, 1, make_bpr(0.5, 1.0));
  inst.graph.add_edge(0, 1, make_mm1(3.0));
  inst.commodities.push_back(Commodity{0, 1, 1.2});
  const EquilibriumResult n = solve_equilibrium(inst);
  EXPECT_TRUE(solve_ok(n.status));
  EXPECT_NEAR(sum(n.edge_flow), 1.2, 1e-8);
  const MopResult r = mop(inst);
  EXPECT_LT(r.induced_residual, 1e-5);
}

TEST(Robustness, ZeroLatencyEdgesInNetworks) {
  // Constant-zero edges (like Braess's shortcut) through the full stack.
  const MopResult r = mop(braess_classic());
  EXPECT_NEAR(r.beta, 1.0, 1e-6);
  EXPECT_NEAR(r.induced_cost, 1.5, 1e-6);
}

}  // namespace
}  // namespace stackroute
