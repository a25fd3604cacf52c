// Warm-start solve chains (ISSUE 4): cold vs warm wall-clock over the two
// demand-axis sweeps that dominate the paper's β curves — an M/M/1
// parallel-links system (OpTop water-filling chains) and a generated
// grid-bpr network (MOP / path-equilibration chains) — plus the raw
// Frank–Wolfe warm entry point. Everything runs at one thread, matching
// the acceptance criterion; the Warm/Cold row pairs in BENCH_warm.json are
// the tracked headline (CI fails the bench-perf job on >25% regression of
// the warm counters).
#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "stackroute/gen/registry.h"
#include "stackroute/network/generators.h"
#include "stackroute/solver/backend.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenarios.h"
#include "stackroute/util/parallel.h"

namespace {

using namespace stackroute;

// The bench_mm1_beta two-groups shape at 4x the builtin link count (total
// capacity still 20), swept over a dense demand axis — the shape the β
// curves need, big enough that the water-filling solves dominate the
// per-task fixed costs.
sweep::ScenarioSpec mm1_demand_spec(int points) {
  sweep::ScenarioSpec spec;
  spec.name = "mm1-beta-demand";
  spec.grid.add_linspace("demand", 11.0, 17.0, points);
  auto prototype = std::make_shared<engine::Instance>(
      mm1_two_groups(12, 1.0, 28, 8.0 / 28.0, 11.0));
  spec.factory = [prototype](const sweep::ParamPoint& p,
                             Rng&) -> engine::Instance {
    engine::Instance inst = *prototype;
    sweep::override_demand(inst, p.get("demand"));
    return inst;
  };
  spec.metrics = sweep::default_metrics();
  spec.metrics.push_back(sweep::metric_optop_rounds());
  spec.warm_axis = "demand";
  return spec;
}

sweep::ScenarioSpec grid_bpr_demand_spec(int points) {
  sweep::ScenarioSpec spec;
  spec.name = "grid-bpr-demand";
  spec.grid.add_linspace("demand", 0.5, 3.0, points);
  spec.factory =
      sweep::generated_instance_source(gen::sized_spec("grid-bpr", 10), 7);
  spec.metrics = sweep::default_metrics();
  spec.warm_axis = "demand";
  return spec;
}

void run_sweep(benchmark::State& state, const sweep::ScenarioSpec& spec,
               bool warm) {
  const int saved = max_threads_setting();
  set_max_threads(1);
  sweep::SweepOptions opts;
  opts.warm_start = warm;
  std::size_t failed = 0;
  for (auto _ : state) {
    const sweep::SweepResult r = sweep::SweepRunner(opts).run(spec);
    failed += r.num_failed();
    benchmark::DoNotOptimize(failed);
  }
  set_max_threads(saved);
  state.counters["tasks"] = static_cast<double>(spec.grid.size());
  state.counters["failed"] = static_cast<double>(failed);
}

void BM_Mm1BetaDemandSweepCold(benchmark::State& state) {
  const sweep::ScenarioSpec spec = mm1_demand_spec(64);
  run_sweep(state, spec, false);
}
BENCHMARK(BM_Mm1BetaDemandSweepCold)->Unit(benchmark::kMillisecond);

void BM_Mm1BetaDemandSweepWarm(benchmark::State& state) {
  const sweep::ScenarioSpec spec = mm1_demand_spec(64);
  run_sweep(state, spec, true);
}
BENCHMARK(BM_Mm1BetaDemandSweepWarm)->Unit(benchmark::kMillisecond);

void BM_GridBprDemandSweepCold(benchmark::State& state) {
  const sweep::ScenarioSpec spec = grid_bpr_demand_spec(48);
  run_sweep(state, spec, false);
}
BENCHMARK(BM_GridBprDemandSweepCold)->Unit(benchmark::kMillisecond);

void BM_GridBprDemandSweepWarm(benchmark::State& state) {
  const sweep::ScenarioSpec spec = grid_bpr_demand_spec(48);
  run_sweep(state, spec, true);
}
BENCHMARK(BM_GridBprDemandSweepWarm)->Unit(benchmark::kMillisecond);

// The Frank–Wolfe warm path: a 16-point demand chain on a BPR grid, each
// solve seeded with the previous converged flow rescaled by the demand
// ratio (vs. the all-or-nothing bootstrap every time).
void fw_chain(benchmark::State& state, bool warm) {
  const int saved = max_threads_setting();
  set_max_threads(1);
  Rng rng(8);
  const NetworkInstance base = grid_city(rng, 12, 12, 3.0);
  EquilibriumRequest req;
  req.backend = EquilibriumBackend::kFrankWolfe;
  req.frank_wolfe.rel_gap_tol = 1e-4;
  for (auto _ : state) {
    SolverWorkspace ws;
    EquilibriumWarmState chain;
    std::vector<double> prev_flow;
    for (int i = 0; i < 16; ++i) {
      NetworkInstance inst = base;
      const double f = 1.0 + 0.05 * i;
      for (auto& c : inst.commodities) c.demand *= f;
      EquilibriumWarmState* link = warm ? &chain : nullptr;
      prev_flow = solve_equilibrium(inst, {}, req, ws, link, link).edge_flow;
    }
    benchmark::DoNotOptimize(prev_flow);
  }
  set_max_threads(saved);
}

void BM_FrankWolfeDemandChainCold(benchmark::State& state) {
  fw_chain(state, false);
}
BENCHMARK(BM_FrankWolfeDemandChainCold)->Unit(benchmark::kMillisecond);

void BM_FrankWolfeDemandChainWarm(benchmark::State& state) {
  fw_chain(state, true);
}
BENCHMARK(BM_FrankWolfeDemandChainWarm)->Unit(benchmark::kMillisecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
