// SiouxFalls end-to-end: the shipped TNTP instance loads, solves through
// Frank-Wolfe and path equilibration, and runs the full MOP pipeline.
#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "stackroute/core/mop.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/io/tntp.h"
#include "stackroute/solver/backend.h"
#include "stackroute/sweep/scenario.h"

namespace stackroute {
namespace {

const std::string kSiouxFallsPath =
    std::string(STACKROUTE_SOURCE_DIR) +
    "/examples/instances/SiouxFalls_net.tntp";

NetworkInstance sioux_falls(double demand) {
  NetworkInstance inst = read_tntp_network_file(kSiouxFallsPath);
  // _net.tntp carries no demands; route one commodity across town
  // (node 1 -> node 20 in the file's 1-based ids) at a volume where the
  // BPR congestion terms matter against ~5-25k link capacities.
  inst.commodities.push_back(Commodity{0, 19, demand});
  inst.validate();
  return inst;
}

TEST(SiouxFalls, FrankWolfeSolvesNashAndOptimum) {
  const NetworkInstance inst = sioux_falls(10000.0);
  EquilibriumRequest req;
  req.backend = EquilibriumBackend::kFrankWolfe;
  const EquilibriumResult nash = solve_equilibrium(inst, req);
  EXPECT_TRUE(solve_ok(nash.status));
  req.objective = FlowObjective::kTotalCost;
  const EquilibriumResult opt = solve_equilibrium(inst, req);
  EXPECT_TRUE(solve_ok(opt.status));

  // Flow conservation at the source: everything leaves node 0.
  double out = 0.0, in = 0.0;
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    if (inst.graph.edge(e).tail == 0) out += nash.edge_flow[e];
    if (inst.graph.edge(e).head == 0) in += nash.edge_flow[e];
  }
  EXPECT_NEAR(out - in, 10000.0, 1e-3);

  // FW's optimum agrees with the path-equilibration solver.
  const EquilibriumResult eq =
      solve_equilibrium(inst, FlowObjective::kTotalCost);
  const double eq_cost = cost(inst, eq.edge_flow);
  const double fw_cost = cost(inst, opt.edge_flow);
  EXPECT_TRUE(solve_ok(eq.status));
  EXPECT_NEAR(fw_cost, eq_cost, 1e-3 * eq_cost);
  // And the Nash cost dominates the optimum cost.
  EXPECT_GE(cost(inst, nash.edge_flow), eq_cost * (1.0 - 1e-9));
}

TEST(SiouxFalls, MopInducesTheOptimum) {
  const NetworkInstance inst = sioux_falls(10000.0);
  const MopResult res = mop(inst);
  EXPECT_GE(res.beta, 0.0);
  EXPECT_LE(res.beta, 1.0);
  // MOP's guarantee: the induced equilibrium reproduces the optimum.
  EXPECT_NEAR(res.induced_cost, res.optimum_cost,
              1e-6 * res.optimum_cost + 1e-9);
  EXPECT_LT(res.induced_residual, 1e-3);
  ASSERT_EQ(res.commodities.size(), 1u);
  EXPECT_NEAR(res.commodities[0].free_flow + res.commodities[0].controlled_flow,
              10000.0, 1e-3);
}

TEST(SiouxFalls, SweepFileSourceLoadsTntp) {
  // The sweep layer's file source auto-detects .tntp and attaches a unit
  // commodity, rescaled by the demand axis.
  engine::Instance inst = sweep::load_instance_file(kSiouxFallsPath);
  auto& net = std::get<NetworkInstance>(inst);
  ASSERT_EQ(net.commodities.size(), 1u);
  sweep::override_demand(inst, 500.0);
  EXPECT_DOUBLE_EQ(std::get<NetworkInstance>(inst).total_demand(), 500.0);
  EXPECT_NO_THROW(std::get<NetworkInstance>(inst).validate());
}

}  // namespace
}  // namespace stackroute
