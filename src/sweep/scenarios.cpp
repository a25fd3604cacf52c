#include "stackroute/sweep/scenarios.h"

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "stackroute/core/hard_instances.h"
#include "stackroute/core/strategy.h"
#include "stackroute/gen/generators.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/error.h"

namespace stackroute::sweep {

namespace {

// Degree-d Pigou {x^d, 1} at demand r: the flagship grid. For r = 1 the
// closed forms β = 1 − (d+1)^{−1/d} and ρ = (1 − d·(d+1)^{−(d+1)/d})^{−1}
// hold; sweeping r shows how both deform away from the unit-demand story.
ScenarioSpec pigou_grid() {
  ScenarioSpec spec;
  spec.name = "pigou-grid";
  // Warm-axis declarations (scenario.h) follow one rule: demand axes
  // only. Scenarios whose factories serve the *same* latency objects at
  // every demand — built from shared prototypes like the monomial table
  // below — actually warm-start along their chains (the sweep's warm test
  // compares latencies by pointer); scenarios that redraw a random
  // instance per point still chain safely (their tasks solve cold while
  // sharing the chain's workspace), at the cost of a narrower fan-out.
  // Axes that parameterize the latency family itself (braess-eps' eps,
  // thm24-hard's slope) declare nothing: chaining could never engage there.
  spec.warm_axis = "demand";
  spec.description =
      "nonlinear Pigou {x^d, 1}: latency degree x demand, beta/PoA/costs";
  spec.grid.add_range("degree", 1, 12).add_linspace("demand", 0.25, 3.0, 12);
  // Latency objects are immutable, so one x^d per degree is shared by all
  // tasks (and threads); demand is the only thing the factory varies.
  auto monomials = std::make_shared<std::vector<LatencyPtr>>();
  for (int d = 1; d <= 12; ++d) monomials->push_back(make_monomial(1.0, d));
  const LatencyPtr constant = make_constant(1.0);
  spec.factory = [monomials, constant](const ParamPoint& p,
                                       Rng&) -> engine::Instance {
    const int d = p.get_int("degree");
    ParallelLinks m;
    // Out-of-table degrees (custom re-grids) fall back to fresh objects —
    // correct, just chain-cold.
    m.links = {d >= 1 && d <= static_cast<int>(monomials->size())
                   ? (*monomials)[static_cast<std::size_t>(d - 1)]
                   : make_monomial(1.0, d),
               constant};
    m.demand = p.get("demand");
    return m;
  };
  spec.metrics = default_metrics();
  spec.metrics.push_back(metric_optop_rounds());
  return spec;
}

ScenarioSpec affine_random() {
  ScenarioSpec spec;
  spec.name = "affine-random";
  spec.warm_axis = "demand";
  spec.description =
      "random affine links: size x demand x replicate, PoA <= 4/3 check";
  spec.grid.add("links", {2, 4, 6, 8})
      .add("demand", {0.5, 1.0, 2.0, 4.0})
      .add_range("replicate", 0, 9);
  spec.factory = [](const ParamPoint& p, Rng& rng) -> engine::Instance {
    return random_affine_links(rng, p.get_int("links"), p.get("demand"));
  };
  spec.metrics = {metric_beta(), metric_poa(), metric_nash_cost(),
                  metric_optimum_cost()};
  return spec;
}

ScenarioSpec mm1_two_groups_scenario() {
  ScenarioSpec spec;
  spec.name = "mm1-two-groups";
  spec.warm_axis = "demand";
  spec.description =
      "M/M/1 fast/slow groups at fixed total capacity 20 (Cor. 2.2 remark)";
  spec.grid.add_range("fast_links", 1, 5).add("demand", {11, 13, 15, 17});
  // One shared prototype per fast-link count (see pigou_grid on why shared
  // prototypes are what lets demand chains warm-start).
  auto protos = std::make_shared<std::vector<ParallelLinks>>();
  for (int fast = 1; fast <= 5; ++fast) {
    const int servers = 10;
    const double total_capacity = 20.0;
    const double fast_mu = 0.6 * total_capacity / fast;
    const double slow_mu = 0.4 * total_capacity / (servers - fast);
    protos->push_back(
        mm1_two_groups(fast, fast_mu, servers - fast, slow_mu, 11.0));
  }
  spec.factory = [protos](const ParamPoint& p, Rng&) -> engine::Instance {
    const int fast = p.get_int("fast_links");
    SR_REQUIRE(fast >= 1 && fast <= static_cast<int>(protos->size()),
               "mm1-two-groups: fast_links must be in [1, 5]");
    ParallelLinks m = (*protos)[static_cast<std::size_t>(fast - 1)];
    m.demand = p.get("demand");
    return m;
  };
  // The mu columns read the built instance (fast links come first in
  // mm1_two_groups), so they cannot drift from the factory's formulas.
  spec.metrics = {
      {"mu_fast",
       [](TaskEval& e) { return e.links().links.front()->capacity(); }},
      {"mu_slow",
       [](TaskEval& e) { return e.links().links.back()->capacity(); }},
      metric_poa(),
      metric_beta()};
  return spec;
}

ScenarioSpec thm24_hard() {
  ScenarioSpec spec;
  spec.name = "thm24-hard";
  // No warm axis, same rule as braess-eps: the slope axis parameterizes
  // the latency family (and the factory redraws per point anyway), so
  // chaining could never engage and would only shrink the fan-out.
  spec.description =
      "common-slope hard instances: exact vs LLF strategies at alpha = beta/2";
  spec.grid.add("links", {3, 5, 8})
      .add("slope", {0.5, 1.0, 2.0})
      .add_range("replicate", 0, 4);
  spec.factory = [](const ParamPoint& p, Rng& rng) -> engine::Instance {
    return random_common_slope_links(rng, p.get_int("links"), 2.0,
                                     p.get("slope"));
  };
  spec.metrics = {
      metric_beta(),
      metric_poa(),
      {"exact_ratio_halfbeta",
       [](TaskEval& e) {
         return optimal_strategy_common_slope(e.links(), 0.5 * e.beta()).ratio;
       }},
      {"llf_ratio_halfbeta",
       [](TaskEval& e) {
         const auto s = llf_strategy(e.links(), 0.5 * e.beta());
         return evaluate_strategy(e.links(), s).ratio;
       }}};
  return spec;
}

ScenarioSpec braess_eps() {
  ScenarioSpec spec;
  spec.name = "braess-eps";
  // Deliberately no warm axis: the eps axis *is* the latency family, so
  // no two points could ever be chain-compatible — chaining would only
  // collapse the 30-task fan-out to one serial chain for nothing.
  spec.description =
      "Fig. 7 Braess-topology family: beta_G = 1/2 + 2eps via MOP";
  spec.grid.add_linspace("eps", 0.001, 0.12, 30);
  spec.factory = [](const ParamPoint& p, Rng&) -> engine::Instance {
    return fig7_instance(p.get("eps"));
  };
  spec.metrics = {
      metric_beta(),
      {"beta_closed_form",
       [](TaskEval& e) { return 0.5 + 2.0 * e.point().get("eps"); }},
      metric_poa(),
      metric_optimum_cost()};
  return spec;
}

ScenarioSpec layered_dag() {
  ScenarioSpec spec;
  spec.name = "layered-dag";
  spec.warm_axis = "demand";
  spec.description =
      "random layered DAGs: beta_G via MOP on arbitrary single-commodity nets";
  spec.grid.add("layers", {2, 3})
      .add("width", {3, 4})
      .add("demand", {1.0, 2.0})
      .add_range("replicate", 0, 2);
  spec.factory = [](const ParamPoint& p, Rng& rng) -> engine::Instance {
    return random_layered_dag(rng, p.get_int("layers"), p.get_int("width"),
                              0.6, p.get("demand"));
  };
  spec.metrics = {metric_beta(), metric_poa(), metric_nash_cost(),
                  metric_optimum_cost(), metric_stackelberg_cost()};
  return spec;
}

// The gen/ scenarios derive each task's generator seed from the task Rng
// (itself seeded with mix_seed(base_seed, task index)), so the sweep
// stays a pure function of (spec, grid index) at any thread count.

ScenarioSpec grid_bpr() {
  ScenarioSpec spec;
  spec.name = "grid-bpr";
  spec.warm_axis = "demand";
  spec.description =
      "random BPR street grids: size x demand x replicate through MOP";
  spec.grid.add("size", {3, 4, 5})
      .add("demand", {0.5, 1.0, 2.0})
      .add_range("replicate", 0, 2);
  spec.factory = [](const ParamPoint& p, Rng& rng) -> engine::Instance {
    gen::GridSpec g;
    g.rows = g.cols = p.get_int("size");
    g.demand = p.get("demand");
    return gen::make_grid(g, rng.next_u64());
  };
  spec.metrics = default_metrics();
  return spec;
}

ScenarioSpec series_parallel() {
  ScenarioSpec spec;
  spec.name = "series-parallel";
  spec.warm_axis = "demand";
  spec.description =
      "random series-parallel nets: depth x branching x demand via MOP";
  spec.grid.add("depth", {2, 3, 4})
      .add("parallel_prob", {0.3, 0.6})
      .add("demand", {1.0, 2.0})
      .add_range("replicate", 0, 2);
  spec.factory = [](const ParamPoint& p, Rng& rng) -> engine::Instance {
    gen::SeriesParallelSpec g;
    g.depth = p.get_int("depth");
    g.parallel_prob = p.get("parallel_prob");
    g.demand = p.get("demand");
    return gen::make_series_parallel(g, rng.next_u64());
  };
  spec.metrics = default_metrics();
  return spec;
}

ScenarioSpec braess_ladder() {
  ScenarioSpec spec;
  spec.name = "braess-ladder";
  spec.warm_axis = "demand";
  spec.description =
      "chained Braess diamonds: rungs x demand, beta_G via MOP";
  spec.grid.add("rungs", {1, 2, 4, 8}).add("demand", {0.5, 1.0, 2.0});
  spec.factory = [](const ParamPoint& p, Rng& rng) -> engine::Instance {
    gen::BraessLadderSpec g;
    g.rungs = p.get_int("rungs");
    g.demand = p.get("demand");
    return gen::make_braess_ladder(g, rng.next_u64());
  };
  spec.metrics = default_metrics();
  return spec;
}

// The strategy-compare family: ratio-vs-α curves for the classical
// baselines (Aloof / SCALE / LLF) against MOP's β, on every instance shape
// the paper discusses. All declare "alpha" as the warm axis: the instance
// is identical at every α of a chain (shared prototypes, so the
// pointer-identity warm test holds), the one optimum solve
// per chain is warm-reused, and each baseline's induced solve seeds from
// the previous α's converged follower flow.

/// Shared scaffolding: every strategy-compare scenario sweeps the same
/// metric set along an "alpha" warm axis; the caller supplies the full
/// grid ("alpha" last, so it is the fast axis and each chain fixes the
/// other coordinates).
ScenarioSpec strategy_compare(std::string name, std::string description,
                              InstanceFactory factory, ParamGrid grid) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.warm_axis = "alpha";
  spec.grid = std::move(grid);
  spec.factory = std::move(factory);
  spec.metrics = strategy_metrics();
  return spec;
}

ScenarioSpec strategy_compare_parallel() {
  // Fig. 4: the paper's worked five-link system. The prototype is shared
  // by all tasks, so α chains warm-start.
  auto prototype = std::make_shared<engine::Instance>(fig4_instance());
  return strategy_compare(
      "strategy-compare-parallel",
      "Fig. 4 parallel links: Aloof/SCALE/LLF ratio vs alpha, beta = 29/120",
      [prototype](const ParamPoint&, Rng&) -> engine::Instance {
        return *prototype;
      },
      ParamGrid().add_linspace("alpha", 0.0, 1.0, 21));
}

ScenarioSpec strategy_compare_grid() {
  auto prototype = std::make_shared<engine::Instance>(
      gen::generate(gen::sized_spec("grid-bpr", 4), 7));
  return strategy_compare(
      "strategy-compare-grid",
      "BPR street grid: baseline ratio vs alpha on a general network",
      [prototype](const ParamPoint& p, Rng&) -> engine::Instance {
        engine::Instance inst = *prototype;
        override_demand(inst, p.get("demand"));
        return inst;
      },
      ParamGrid().add("demand", {1.0, 2.0}).add_linspace("alpha", 0.0, 1.0,
                                                         21));
}

ScenarioSpec strategy_compare_braess() {
  // One shared ladder per rung count (see mm1-two-groups for the shared-
  // prototype pattern); the Braess topology is where SCALE/LLF visibly
  // fail to reach C(O) for any alpha < 1 while MOP's beta does.
  auto protos = std::make_shared<std::vector<engine::Instance>>();
  const std::vector<int> rungs = {1, 2, 4};
  std::vector<double> rung_values;
  for (int k : rungs) {
    gen::BraessLadderSpec g;
    g.rungs = k;
    protos->push_back(gen::make_braess_ladder(g, 5));
    rung_values.push_back(k);
  }
  return strategy_compare(
      "strategy-compare-braess",
      "chained Braess diamonds: baseline ratio vs alpha, rungs x alpha",
      [protos, rungs](const ParamPoint& p, Rng&) -> engine::Instance {
        const int k = p.get_int("rungs");
        for (std::size_t i = 0; i < rungs.size(); ++i) {
          if (rungs[i] == k) return (*protos)[i];
        }
        throw Error("strategy-compare-braess: rungs must be one of 1, 2, 4");
      },
      ParamGrid().add("rungs", rung_values).add_linspace("alpha", 0.0, 1.0,
                                                         21));
}

ScenarioSpec strategy_compare_siouxfalls() {
  // The shipped TNTP instance at demand 10000 — the regime where beta is
  // ~0.31 and PoA ~1.24 (see EXPERIMENTS.md), so the baselines have real
  // work to do. Resolved relative to the working directory first, then to
  // the source tree the library was configured from.
  auto prototype =
      std::make_shared<engine::Instance>(load_instance_file(locate_data_file(
          "examples/instances/SiouxFalls_net.tntp")));
  return strategy_compare(
      "strategy-compare-siouxfalls",
      "SiouxFalls (TNTP) at demand 10000: baseline ratio vs alpha",
      [prototype](const ParamPoint&, Rng&) -> engine::Instance {
        engine::Instance inst = *prototype;
        override_demand(inst, 10000.0);
        return inst;
      },
      ParamGrid().add_linspace("alpha", 0.0, 1.0, 11));
}

}  // namespace

const std::vector<NamedScenario>& builtin_scenarios() {
  static const std::vector<NamedScenario> registry = {
      {"pigou-grid", "144-task degree x demand grid on nonlinear Pigou",
       pigou_grid},
      {"affine-random", "160 random affine systems, PoA <= 4/3 territory",
       affine_random},
      {"mm1-two-groups", "M/M/1 concentration sweep (remark after Cor. 2.2)",
       mm1_two_groups_scenario},
      {"thm24-hard", "Theorem 2.4 common-slope strategies below beta",
       thm24_hard},
      {"braess-eps", "Fig. 7 family, beta_G vs closed form 1/2 + 2eps",
       braess_eps},
      {"layered-dag", "MOP on random layered DAGs", layered_dag},
      {"grid-bpr", "random BPR street grids (gen/)", grid_bpr},
      {"series-parallel", "random series-parallel networks (gen/)",
       series_parallel},
      {"braess-ladder", "chained Braess diamonds (gen/)", braess_ladder},
      {"strategy-compare-parallel", "Aloof/SCALE/LLF vs alpha on Fig. 4",
       strategy_compare_parallel},
      {"strategy-compare-grid", "Aloof/SCALE/LLF vs alpha on a BPR grid",
       strategy_compare_grid},
      {"strategy-compare-braess", "Aloof/SCALE/LLF vs alpha on Braess ladders",
       strategy_compare_braess},
      {"strategy-compare-siouxfalls",
       "Aloof/SCALE/LLF vs alpha on SiouxFalls (TNTP)",
       strategy_compare_siouxfalls},
  };
  return registry;
}

ScenarioSpec make_scenario(const std::string& name) {
  for (const auto& s : builtin_scenarios()) {
    if (s.name == name) return s.make();
  }
  std::ostringstream os;
  os << "unknown scenario: " << name << " (valid:";
  for (const auto& s : builtin_scenarios()) os << ' ' << s.name;
  os << ')';
  throw Error(os.str());
}

}  // namespace stackroute::sweep
