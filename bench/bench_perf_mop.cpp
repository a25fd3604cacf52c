// E10b — MOP scaling with network size and commodity count, with the
// per-phase breakdown (optimum solve vs strategy extraction).
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "stackroute/core/mop.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/rng.h"

namespace {

using namespace stackroute;

void BM_SolveOptimumGrid(benchmark::State& state) {
  Rng rng(7);
  const int n = static_cast<int>(state.range(0));
  const NetworkInstance inst = grid_city(rng, n, n, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_equilibrium(inst, FlowObjective::kTotalCost));
  }
  state.SetComplexityN(inst.graph.num_edges());
}
BENCHMARK(BM_SolveOptimumGrid)->Arg(3)->Arg(5)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_MopGrid(benchmark::State& state) {
  Rng rng(8);
  const int n = static_cast<int>(state.range(0));
  const NetworkInstance inst = grid_city(rng, n, n, 2.0);
  MopOptions opts;
  opts.verify_induced = false;  // strategy extraction only
  for (auto _ : state) {
    benchmark::DoNotOptimize(mop(inst, opts));
  }
  state.SetComplexityN(inst.graph.num_edges());
}
BENCHMARK(BM_MopGrid)->Arg(3)->Arg(5)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_MopGridVerified(benchmark::State& state) {
  Rng rng(8);
  const int n = static_cast<int>(state.range(0));
  const NetworkInstance inst = grid_city(rng, n, n, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mop(inst));
  }
}
BENCHMARK(BM_MopGridVerified)->Arg(3)->Arg(5)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MopCommodities(benchmark::State& state) {
  Rng rng(9);
  const int k = static_cast<int>(state.range(0));
  const NetworkInstance inst =
      grid_city_multicommodity(rng, 6, 6, k, 0.2, 0.8);
  MopOptions opts;
  opts.verify_induced = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mop(inst, opts));
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_MopCommodities)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MopLayeredDag(benchmark::State& state) {
  Rng rng(10);
  const int layers = static_cast<int>(state.range(0));
  const NetworkInstance inst = random_layered_dag(rng, layers, 6, 0.5, 2.0);
  MopOptions opts;
  opts.verify_induced = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mop(inst, opts));
  }
}
BENCHMARK(BM_MopLayeredDag)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
