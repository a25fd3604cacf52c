// Observability overhead guard: the same solves with no counter sink,
// with a counter sink installed, and with full span+convergence tracing.
//
// The zero-overhead contract of obs/counters.h is that the *CountersOff
// rows cost the same as the uninstrumented library did: every call site
// is a thread-local load and an untaken branch. CI gates the off rows
// against the committed BENCH_obs.json, calibrated by each case's own
// counters-on row — i.e. what is gated is the off/on ratio, which a
// clock-speed difference between runners cannot move. The on and traced
// rows document what opting in costs (small, but not zero: FW's tracing
// path recomputes the objective per iteration).
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/solver/backend.h"
#include "stackroute/solver/water_filling.h"
#include "stackroute/util/rng.h"

namespace {

using namespace stackroute;

NetworkInstance bench_grid() {
  Rng rng(8);
  return grid_city(rng, 10, 10, 2.0);
}

EquilibriumRequest equilibration_request() {
  EquilibriumRequest req;
  req.assignment.tol = 1e-8;
  return req;
}

EquilibriumRequest fw_request() {
  EquilibriumRequest req;
  req.backend = EquilibriumBackend::kFrankWolfe;
  req.budget.max_iters = 40;
  // Fixed budget: identical work in every mode.
  req.frank_wolfe.rel_gap_tol = 0.0;
  return req;
}

// ---- Path equilibration --------------------------------------------------

void BM_PathEquilibrationCountersOff(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const EquilibriumRequest req = equilibration_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_equilibrium(inst, req));
  }
}
BENCHMARK(BM_PathEquilibrationCountersOff)->Unit(benchmark::kMillisecond);

void BM_PathEquilibrationCountersOn(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const EquilibriumRequest req = equilibration_request();
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_equilibrium(inst, req));
  }
}
BENCHMARK(BM_PathEquilibrationCountersOn)->Unit(benchmark::kMillisecond);

void BM_PathEquilibrationTraced(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const EquilibriumRequest req = equilibration_request();
  obs::SolveCounters sink;
  obs::TraceSession session;
  obs::ConvergenceTrace convergence;
  obs::CountersScope counters(sink);
  obs::TraceScope trace(session);
  obs::ConvergenceScope conv(convergence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_equilibrium(inst, req));
  }
}
BENCHMARK(BM_PathEquilibrationTraced)->Unit(benchmark::kMillisecond);

// ---- Frank–Wolfe ---------------------------------------------------------

void BM_FrankWolfeCountersOff(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const EquilibriumRequest req = fw_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_equilibrium(inst, req));
  }
}
BENCHMARK(BM_FrankWolfeCountersOff)->Unit(benchmark::kMillisecond);

void BM_FrankWolfeCountersOn(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const EquilibriumRequest req = fw_request();
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_equilibrium(inst, req));
  }
}
BENCHMARK(BM_FrankWolfeCountersOn)->Unit(benchmark::kMillisecond);

void BM_FrankWolfeTraced(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const EquilibriumRequest req = fw_request();
  obs::SolveCounters sink;
  obs::TraceSession session;
  obs::ConvergenceTrace convergence;
  obs::CountersScope counters(sink);
  obs::TraceScope trace(session);
  obs::ConvergenceScope conv(convergence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_equilibrium(inst, req));
  }
}
BENCHMARK(BM_FrankWolfeTraced)->Unit(benchmark::kMillisecond);

// ---- Water filling -------------------------------------------------------
// The finest-grained solver: per-solve cost is microseconds, so the
// per-call-site cost of the disabled instrumentation shows up here first
// if it shows up anywhere.

std::vector<LatencyPtr> bench_links(int m) {
  Rng rng(1);
  std::vector<LatencyPtr> links;
  for (int i = 0; i < m; ++i) {
    links.push_back(make_affine(rng.uniform(0.3, 3.0), rng.uniform(0.0, 1.5)));
  }
  return links;
}

void BM_WaterFillCountersOff(benchmark::State& state) {
  const auto links = bench_links(1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(water_fill(links, 50.0, LevelKind::kLatency));
  }
}
BENCHMARK(BM_WaterFillCountersOff)->Unit(benchmark::kMicrosecond);

void BM_WaterFillCountersOn(benchmark::State& state) {
  const auto links = bench_links(1000);
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  for (auto _ : state) {
    benchmark::DoNotOptimize(water_fill(links, 50.0, LevelKind::kLatency));
  }
}
BENCHMARK(BM_WaterFillCountersOn)->Unit(benchmark::kMicrosecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
