// Stackelberg routing on a synthetic city grid with BPR road latencies —
// the "real network" scenario the paper's s–t extension targets.
//
// A transit authority controls a fleet (the Leader); commuters route
// selfishly. The example computes the selfish and optimal assignments,
// the price of optimum β_G via MOP, and a SCALE-strategy sweep showing how
// the induced cost falls as the controlled fraction α grows — and that at
// α = β_G the MOP strategy already achieves the optimum exactly.
//
// Build & run:  ./build/examples/traffic_grid [rows cols demand seed]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "stackroute/core/mop.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/io/table.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

int main(int argc, char** argv) {
  using namespace stackroute;
  const int rows = argc > 1 ? std::atoi(argv[1]) : 4;
  const int cols = argc > 2 ? std::atoi(argv[2]) : 5;
  const double demand = argc > 3 ? std::atof(argv[3]) : 3.0;
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 7;

  Rng rng(seed);
  const NetworkInstance inst = grid_city(rng, rows, cols, demand);
  std::cout << "== Stackelberg routing on a " << rows << "x" << cols
            << " BPR grid, demand " << demand << " ==\n\n";
  std::cout << inst.graph.num_nodes() << " intersections, "
            << inst.graph.num_edges() << " road segments.\n\n";

  const double nash = cost(inst, solve_equilibrium(inst).edge_flow);
  const EquilibriumResult opt =
      solve_equilibrium(inst, FlowObjective::kTotalCost);
  const double opt_cost = cost(inst, opt.edge_flow);
  std::cout << "Selfish commuting cost C(N)  = " << format_double(nash)
            << "\n";
  std::cout << "Coordinated optimum  C(O)  = " << format_double(opt_cost)
            << "\n";
  std::cout << "Price of anarchy           = "
            << format_double(nash / opt_cost, 6) << "\n\n";

  const MopResult r = mop(inst);
  std::cout << "MOP: the authority needs beta = " << format_double(r.beta)
            << " of the traffic to make the commute optimal.\n";
  std::cout << "Verification: C(S+T) = " << format_double(r.induced_cost)
            << ", residual max|s+t-o| = "
            << format_double(r.induced_residual, 8) << "\n\n";

  // SCALE sweep: preload α·O and let the rest route selfishly. SCALE is a
  // *heuristic* — unlike MOP it generally does not hit C(O) at α = β.
  std::cout << "SCALE strategy sweep (preload = alpha * optimum):\n";
  Table sweep({"alpha", "C(S+T)", "ratio to C(O)"});
  for (double alpha : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    std::vector<double> preload(opt.edge_flow);
    for (double& v : preload) v *= alpha;
    NetworkInstance followers = inst;
    for (auto& c : followers.commodities) c.demand *= (1.0 - alpha);
    double cost_at_alpha;
    if (alpha >= 1.0) {
      cost_at_alpha = opt_cost;
    } else {
      // The followers' flow rides on the preload: C(S+T) = C(s + t).
      const EquilibriumResult induced =
          solve_equilibrium(followers, FlowObjective::kBeckmann, preload);
      cost_at_alpha = cost(inst, add(preload, induced.edge_flow));
    }
    sweep.add_row({format_double(alpha, 2), format_double(cost_at_alpha),
                   format_double(cost_at_alpha / opt_cost, 6)});
  }
  std::cout << sweep.to_markdown() << "\n";
  std::cout << "MOP at alpha = " << format_double(r.beta)
            << " already achieves ratio 1 — SCALE typically needs more.\n";
  return 0;
}
