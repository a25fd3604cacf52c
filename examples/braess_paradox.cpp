// Braess's paradox and Stackelberg routing on arbitrary s–t networks.
//
// Part 1: the classic Braess graph — adding a free shortcut makes selfish
// routing worse (cost 1.5 → 2.0); MOP reports that inducing the optimum
// there requires controlling *all* the flow (β = 1): any free rider would
// take the shortcut, which the optimum leaves empty.
//
// Part 2: the paper's Fig. 7 graph (Roughgarden's Example 6.5.1 shape),
// where no strategy controlling an a-priori fixed α can guarantee better
// than (1/α)·C(O) — yet MOP, by *choosing* its portion β_G = 1/2 + 2ε,
// induces exactly C(O) (approximation guarantee 1).
//
// Build & run:  ./build/examples/braess_paradox [eps]
#include <cstdlib>
#include <iostream>

#include "stackroute/core/mop.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/io/table.h"
#include "stackroute/network/generators.h"

int main(int argc, char** argv) {
  using namespace stackroute;
  const double eps = argc > 1 ? std::atof(argv[1]) : 0.05;

  std::cout << "== Part 1: the classic Braess paradox ==\n\n";
  const NetworkInstance with = braess_classic();
  const NetworkInstance without = braess_without_shortcut();
  const double nash_with = cost(with, solve_equilibrium(with).edge_flow);
  const double nash_without =
      cost(without, solve_equilibrium(without).edge_flow);
  const double opt_with = cost(
      with,
      solve_equilibrium(with, FlowObjective::kTotalCost)
          .edge_flow);

  Table braess({"network", "Nash cost", "optimum cost", "PoA"});
  braess.add_row({"with shortcut", format_double(nash_with),
                  format_double(opt_with),
                  format_double(nash_with / opt_with)});
  braess.add_row({"without shortcut", format_double(nash_without),
                  format_double(nash_without), "1.0"});
  std::cout << braess.to_markdown() << "\n";
  std::cout << "Adding the free shortcut degrades the equilibrium from "
            << format_double(nash_without) << " to "
            << format_double(nash_with) << ".\n\n";

  const MopResult mop_braess = mop(with);
  std::cout << "MOP on the shortcut graph: beta = "
            << format_double(mop_braess.beta)
            << " — the Leader must control everything, because the\n"
               "optimum leaves the (shortest!) zigzag path empty.\n\n";

  std::cout << "== Part 2: Fig. 7 (eps = " << eps << ") ==\n\n";
  const NetworkInstance fig7 = fig7_instance(eps);
  const Fig7Expected expected = fig7_expected(eps);
  const MopResult r = mop(fig7);

  const char* edge_names[] = {"s->v", "s->w", "v->w", "v->t", "w->t"};
  Table edges({"edge", "latency", "optimum flow", "leader flow", "caption"});
  for (EdgeId e = 0; e < fig7.graph.num_edges(); ++e) {
    const auto ei = static_cast<std::size_t>(e);
    edges.add_row({edge_names[ei], fig7.graph.edge(e).latency->describe(),
                   format_double(r.optimum_edge_flow[ei]),
                   format_double(r.leader_edge_flow[ei]),
                   format_double(expected.optimum_edges[ei])});
  }
  std::cout << edges.to_markdown() << "\n";

  std::cout << "Shortest path under optimum costs: s->v->w->t, cost "
            << format_double(r.commodities[0].shortest_cost) << " (caption: "
            << format_double(expected.shortest_path_cost) << ")\n";
  std::cout << "Free (uncontrolled) flow r' = "
            << format_double(r.free_flow_total) << " (caption: "
            << format_double(expected.free_flow) << ")\n";
  std::cout << "Price of optimum beta_G = " << format_double(r.beta)
            << " (caption: 1/2 + 2eps = " << format_double(expected.beta)
            << ")\n";
  std::cout << "Induced cost C(S+T) = " << format_double(r.induced_cost)
            << " vs C(O) = " << format_double(r.optimum_cost)
            << "  -> approximation guarantee "
            << format_double(r.induced_cost / r.optimum_cost) << "\n";
  return 0;
}
