// E8 — the remark after Corollary 2.2: in M/M/1 systems with small groups
// of highly appealing links, or large groups of identical links, beta_M
// can be significantly small.
//
// Two sweeps at fixed total capacity, both driven by the sweep engine:
// (i) concentration — the builtin mm1-two-groups scenario restricted to
// one demand; (ii) homogenization — a custom ratio grid, beta -> 0 as the
// system approaches identical links.
#include <iostream>

#include "stackroute/network/generators.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenarios.h"
#include "stackroute/util/build_info.h"

int main() {
  // Figure reproductions are only comparable from Release builds; make
  // the configuration part of the output so a Debug table is self-evident.
  std::cout << "_stackroute build: " << stackroute::build_type() << "_\n\n";
  using namespace stackroute;
  std::cout << "# E8: beta_M on M/M/1 systems (remark after Cor. 2.2)\n\n";

  const double total_capacity = 20.0;
  const double demand = 13.0;

  std::cout << "## (i) Concentrating 60% of capacity in fewer fast links\n\n";
  {
    // The builtin scenario, pinned to the single demand this figure uses.
    sweep::ScenarioSpec spec = sweep::make_scenario("mm1-two-groups");
    spec.grid = sweep::ParamGrid()
                    .add_range("fast_links", 1, 5)
                    .add("demand", {demand});
    std::cout << sweep::SweepRunner().run(spec).to_markdown() << "\n";
    std::cout << "Smaller, more appealing fast groups -> smaller beta.\n\n";
  }

  std::cout << "## (ii) Homogenizing the system\n\n";
  {
    sweep::ScenarioSpec spec;
    spec.name = "mm1-homogenize";
    spec.grid.add("mu_fast / mu_slow", {8.0, 4.0, 2.0, 1.5, 1.1, 1.0001});
    spec.factory = [&](const sweep::ParamPoint& p, Rng&) -> engine::Instance {
      // 5 fast + 5 slow, capacities normalized to total 20.
      const double ratio = p.get("mu_fast / mu_slow");
      const double slow_mu = total_capacity / (5.0 * (1.0 + ratio));
      return mm1_two_groups(5, ratio * slow_mu, 5, slow_mu, demand);
    };
    spec.metrics = {sweep::metric_beta()};
    std::cout << sweep::SweepRunner().run(spec).to_markdown();
  }
  std::cout << "\nAs the links become identical, Nash -> optimum and\n"
               "beta -> 0: large groups of identical links need no Leader.\n";
  return 0;
}
