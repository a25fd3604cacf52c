// E5 + E11 — Theorem 2.4 on hard instances (alpha < beta), plus the
// footnote-6 / Sharma–Williamson threshold.
//
// For common-slope affine links the exact split algorithm must (i) match
// the brute-force oracle, (ii) dominate LLF and SCALE, (iii) reach ratio 1
// exactly at alpha = beta, and (iv) any strategy controlling less than the
// minimum Nash load among under-loaded links is useless (cost C(N)).
//
// Both experiments sweep a fixed instance over a control axis (alpha/beta
// fraction, budget factor) through the sweep engine; every strategy
// evaluator is a pluggable metric.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "stackroute/core/hard_instances.h"
#include "stackroute/core/optop.h"
#include "stackroute/core/strategy.h"
#include "stackroute/core/structure.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/io/table.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/util/rng.h"
#include "stackroute/util/build_info.h"

int main() {
  // Figure reproductions are only comparable from Release builds; make
  // the configuration part of the output so a Debug table is self-evident.
  std::cout << "_stackroute build: " << stackroute::build_type() << "_\n\n";
  using namespace stackroute;
  std::cout << "# E5: Theorem 2.4 — optimal strategies below beta\n\n";

  Rng rng(11);
  const ParallelLinks m = random_common_slope_links(rng, 5, 2.0, 1.0);
  const OpTopResult optop = op_top(m);
  std::cout << "Instance: 5 links, slope 1, C(N)/C(O) = "
            << format_double(optop.nash_cost / optop.optimum_cost, 6)
            << ", beta = " << format_double(optop.beta, 5) << "\n\n";

  {
    const double beta = optop.beta;
    auto alpha_of = [beta](sweep::TaskEval& e) {
      return std::min(1.0, e.point().get("alpha/beta") * beta);
    };
    sweep::ScenarioSpec spec;
    spec.name = "thm24-alpha";
    spec.grid.add("alpha/beta", {0.0, 0.25, 0.5, 0.75, 0.9, 1.0});
    spec.factory = [&m](const sweep::ParamPoint&, Rng&) -> engine::Instance {
      return m;
    };
    // Several columns read the same expensive solves; TaskEval::cached
    // runs each once per grid point.
    auto exact = [=](sweep::TaskEval& e) -> const Thm24Result& {
      return e.cached<Thm24Result>("exact", [&] {
        return optimal_strategy_common_slope(e.links(), alpha_of(e));
      });
    };
    auto oracle = [=](sweep::TaskEval& e) -> const StackelbergOutcome& {
      return e.cached<StackelbergOutcome>("oracle", [&] {
        return brute_force_strategy(e.links(), alpha_of(e));
      });
    };
    spec.metrics = {
        {"exact ratio", [=](sweep::TaskEval& e) { return exact(e).ratio; }},
        {"oracle ratio", [=](sweep::TaskEval& e) { return oracle(e).ratio; }},
        {"LLF ratio",
         [=](sweep::TaskEval& e) {
           const auto s = llf_strategy(e.links(), alpha_of(e));
           return evaluate_strategy(e.links(), s).ratio;
         }},
        {"SCALE ratio",
         [=](sweep::TaskEval& e) {
           const auto s = scale_strategy(e.links(), alpha_of(e));
           return evaluate_strategy(e.links(), s).ratio;
         }},
        {"split i0",
         [=](sweep::TaskEval& e) { return exact(e).prefix_size; }},
        {"abs(exact-oracle)",  // pipes would break the markdown header
         [=](sweep::TaskEval& e) {
           return std::fabs(exact(e).cost - oracle(e).cost);
         }}};
    std::cout << sweep::SweepRunner().run(spec).to_markdown() << "\n";
  }
  std::cout << "Expected shape: ratios decrease with alpha; the exact\n"
               "algorithm tracks the oracle (abs(exact-oracle) < 5e-3) and hits\n"
               "1.0 at alpha = beta; the split index i0 shrinks as the Leader\n"
               "can afford to own more of the high-intercept suffix.\n\n";

  std::cout << "# E11: the useful-strategy threshold (footnote 6, [43])\n\n";
  // Fixed instance with a *positive* threshold: ℓ1 = x, ℓ2 = x + 1, r = 2.
  // N = (1.5, 0.5), O = (1.25, 0.75): the only under-loaded link is M2
  // with Nash load 0.5, so no strategy controlling < 0.5 can beat C(N).
  const ParallelLinks hard{
      {make_affine(1.0, 0.0), make_affine(1.0, 1.0)}, 2.0};
  const double threshold = minimum_useful_control(hard);
  const LinkAssignment nash = solve_nash(hard);
  const double nash_cost = cost(hard, nash.flows);
  {
    sweep::ScenarioSpec spec;
    spec.name = "threshold-budget";
    spec.grid.add("budget factor", {0.5, 0.9, 0.999, 1.2, 1.5, 2.5});
    spec.factory = [&hard](const sweep::ParamPoint&, Rng&) -> engine::Instance {
      return hard;
    };
    auto best_cost = [threshold](sweep::TaskEval& e) {
      return e.cached<double>("best_cost", [&] {
        const double budget = threshold * e.point().get("budget factor");
        const double alpha = std::min(1.0, budget / e.links().demand);
        return brute_force_strategy(e.links(), alpha).cost;
      });
    };
    spec.metrics = {
        {"budget (flow)",
         [=](sweep::TaskEval& e) {
           return threshold * e.point().get("budget factor");
         }},
        {"best-found C(S+T)", best_cost},
        {"C(N)", [=](sweep::TaskEval&) { return nash_cost; }},
        {"improves",
         [=](sweep::TaskEval& e) {
           return best_cost(e) < nash_cost - 1e-7 ? 1.0 : 0.0;
         }}};
    std::cout << sweep::SweepRunner().run(spec).to_markdown();
  }
  std::cout << "\nControlling less than the minimum Nash load among\n"
               "under-loaded links (threshold = "
            << format_double(threshold, 5)
            << " of r = 2) cannot beat C(N); beyond it, improvement begins.\n";
  return 0;
}
