// Solve any instance file: parallel links or network, auto-detected from
// the header. Prints the Nash/optimum costs, the price of anarchy and the
// price of optimum with the Leader's strategy.
//
// Build & run:  ./build/examples/load_instance examples/instances/fig4.links
//               ./build/examples/load_instance examples/instances/fig7.net
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "stackroute/core/mop.h"
#include "stackroute/core/optop.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/io/serialize.h"
#include "stackroute/io/table.h"
#include "stackroute/util/error.h"

namespace {

int solve_parallel(const stackroute::ParallelLinks& m) {
  using namespace stackroute;
  const LinkAssignment nash = solve_nash(m);
  const LinkAssignment opt = solve_optimum(m);
  std::cout << "Parallel-links instance: " << m.size() << " links, demand "
            << format_double(m.demand) << "\n";
  std::cout << "C(N) = " << format_double(cost(m, nash.flows))
            << ", C(O) = " << format_double(cost(m, opt.flows))
            << ", PoA = " << format_double(price_of_anarchy(m), 6) << "\n\n";
  const OpTopResult r = op_top(m);
  std::cout << "OpTop: beta = " << format_double(r.beta, 6) << " ("
            << r.rounds.size() << " freeze round(s))\n\n";
  Table t({"link", "latency", "nash", "optimum", "leader", "induced"});
  for (std::size_t i = 0; i < m.size(); ++i) {
    t.add_row({"M" + std::to_string(i + 1), m.links[i]->describe(),
               format_double(r.nash[i], 5), format_double(r.optimum[i], 5),
               format_double(r.strategy[i], 5),
               format_double(r.induced[i], 5)});
  }
  std::cout << t.to_markdown();
  std::cout << "\nC(S+T) = " << format_double(r.induced_cost, 8)
            << " (= C(O): the strategy is optimal)\n";
  return 0;
}

int solve_network(const stackroute::NetworkInstance& inst) {
  using namespace stackroute;
  const double nash = cost(inst, solve_equilibrium(inst).edge_flow);
  const double opt = cost(
      inst,
      solve_equilibrium(inst, FlowObjective::kTotalCost)
          .edge_flow);
  std::cout << "Network instance: " << inst.graph.num_nodes() << " nodes, "
            << inst.graph.num_edges() << " edges, "
            << inst.commodities.size() << " commodity(ies), total demand "
            << format_double(inst.total_demand()) << "\n";
  std::cout << "C(N) = " << format_double(nash)
            << ", C(O) = " << format_double(opt)
            << ", PoA = " << format_double(nash / opt, 6) << "\n\n";
  const MopResult r = mop(inst);
  std::cout << "MOP: beta = " << format_double(r.beta, 6)
            << " (weak-strategy beta = " << format_double(r.weak_beta, 6)
            << ")\n\n";
  Table t({"edge", "latency", "optimum", "leader", "follower"});
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const Edge& edge = inst.graph.edge(e);
    const auto ei = static_cast<std::size_t>(e);
    t.add_row({std::to_string(edge.tail) + "->" + std::to_string(edge.head),
               edge.latency->describe(),
               format_double(r.optimum_edge_flow[ei], 5),
               format_double(r.leader_edge_flow[ei], 5),
               format_double(r.follower_edge_flow[ei], 5)});
  }
  std::cout << t.to_markdown();
  std::cout << "\nC(S+T) = " << format_double(r.induced_cost, 8)
            << ", residual max|s+t-o| = "
            << format_double(r.induced_residual, 8) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stackroute;
  if (argc != 2) {
    std::cerr << "usage: load_instance <instance-file>\n"
              << "  (see examples/instances/*.links, *.net)\n";
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::cerr << "cannot open " << argv[1] << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  try {
    // Auto-detect by header keyword.
    const auto pos = text.find_first_not_of(" \t\r\n#");
    if (text.find("parallel_links") != std::string::npos &&
        (text.find("parallel_links") <= pos + 256)) {
      return solve_parallel(parallel_links_from_string(text));
    }
    return solve_network(network_from_string(text));
  } catch (const stackroute::Error& e) {
    std::cerr << "failed to solve " << argv[1] << ": " << e.what() << "\n";
    return 1;
  }
}
