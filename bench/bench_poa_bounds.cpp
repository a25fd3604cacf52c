// E7 — the coordination-ratio landscape of §1: rho(M,r) <= 4/3 for linear
// latencies (Pigou is worst-case) but unbounded in general (degree-d
// Pigou: rho = (1 − d·(d+1)^{−(d+1)/d})^{−1} → ∞). Strikingly, the price
// of optimum moves the *other* way: beta = 1 − (d+1)^{−1/d} → 0, so a
// Leader with a vanishing portion of the flow can fix an arbitrarily bad
// equilibrium.
//
// Both sweeps run on the sweep engine (src/sweep/): this file only
// declares the grids and reads the result records.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "stackroute/equilibrium/parallel.h"
#include "stackroute/io/table.h"
#include "stackroute/network/generators.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/util/build_info.h"

int main() {
  // Figure reproductions are only comparable from Release builds; make
  // the configuration part of the output so a Debug table is self-evident.
  std::cout << "_stackroute build: " << stackroute::build_type() << "_\n\n";
  using namespace stackroute;
  std::cout << "# E7: price of anarchy bounds and the price of optimum\n\n";

  std::cout << "## Linear latencies: rho <= 4/3, Pigou tight\n\n";
  {
    sweep::ScenarioSpec spec;
    spec.name = "affine-worst-rho";
    spec.grid.add_range("links", 2, 9)
        .add_linspace("demand", 0.5, 1.4, 10)
        .add_range("replicate", 0, 2);
    spec.factory = [](const sweep::ParamPoint& p,
                      Rng& rng) -> engine::Instance {
      return random_affine_links(rng, p.get_int("links"), p.get("demand"));
    };
    spec.metrics = {sweep::metric_poa()};
    spec.base_seed = 700;

    // keep_going = false: a failed task would otherwise drop out of the
    // worst-rho max as NaN while the row still claims the full count.
    sweep::SweepOptions options;
    options.keep_going = false;
    const sweep::SweepResult result = sweep::SweepRunner(options).run(spec);
    double worst = 0.0;
    for (const auto& rec : result.records) {
      worst = std::max(worst, rec.metrics[0]);
    }
    Table t({"family", "worst rho", "bound 4/3"});
    t.add_row({std::to_string(result.num_tasks()) + " random affine systems",
               format_double(worst, 6), format_double(4.0 / 3.0, 6)});
    t.add_row({"Pigou", format_double(price_of_anarchy(pigou()), 6),
               format_double(4.0 / 3.0, 6)});
    std::cout << t.to_markdown() << "\n";
  }

  std::cout << "## Nonlinear Pigou: rho unbounded while beta -> 0\n\n";
  {
    sweep::ScenarioSpec spec;
    spec.name = "pigou-degree";
    spec.grid.add("degree d", {1, 2, 4, 8, 16, 32});
    spec.factory = [](const sweep::ParamPoint& p, Rng&) -> engine::Instance {
      return pigou_nonlinear(p.get_int("degree d"));
    };
    spec.metrics = {
        {"rho measured", [](sweep::TaskEval& e) { return e.poa(); }},
        {"rho closed form",
         [](sweep::TaskEval& e) {
           const double d = e.point().get("degree d");
           return 1.0 / (1.0 - d * std::pow(d + 1.0, -(d + 1.0) / d));
         }},
        {"beta measured", [](sweep::TaskEval& e) { return e.beta(); }},
        {"beta closed form (1-(d+1)^{-1/d})",
         [](sweep::TaskEval& e) {
           const double d = e.point().get("degree d");
           return 1.0 - std::pow(d + 1.0, -1.0 / d);
         }}};

    std::cout << sweep::SweepRunner().run(spec).to_markdown();
  }
  std::cout << "\nShape check: rho grows without bound with the degree while\n"
               "the portion beta = 1 - (d+1)^{-1/d} needed to restore the\n"
               "optimum *shrinks to zero* — the sharpest advertisement for\n"
               "computing the price of optimum exactly.\n";
  return 0;
}
