// Equilibrium-backend assignment benchmark: Frank–Wolfe vs the
// origin-based bush solver on the synthetic Anaheim-class TNTP instance
// (416 nodes / 914 links / 38 zones / 380 OD pairs, see
// tools/make_synthetic_anaheim.py) and a generated grid-bpr network.
//
// The headline is time-to-gap. FW converges O(1/k): on Anaheim it needs
// ~14 s to reach a 1e-6 relative gap and cannot reach 1e-10 in any
// reasonable budget, while the bush solver reaches 1e-10 in tens of
// milliseconds (see EXPERIMENTS.md for the full one-off convergence
// table). The rows here are sized for CI: FW runs a fixed 200-iteration
// slice (its achieved gap lands around 1e-4 — recorded honestly in the
// rel_gap counter), and that row doubles as the machine-speed
// calibration for gating the bush rows in BENCH_assignment.json, so what
// CI actually checks is "bush time per FW-slice time", clock-free.
//
// The MOP rows time one cold β_M point on Anaheim (optimum, per-origin
// free flows, induced verification) per backend. Every row runs the
// solvers on one thread; the JSON context says so ("solver_threads").
#include <benchmark/benchmark.h>

#include <variant>

#include "bench_main.h"
#include "stackroute/core/mop.h"
#include "stackroute/gen/registry.h"
#include "stackroute/network/instance.h"
#include "stackroute/solver/backend.h"
#include "stackroute/sweep/scenario.h"
#include "stackroute/util/parallel.h"

namespace {

using namespace stackroute;

const NetworkInstance& anaheim() {
  static const NetworkInstance inst = std::get<NetworkInstance>(
      sweep::load_instance_file(sweep::locate_data_file(
          "examples/instances/Anaheim_net.tntp")));
  return inst;
}

/// Anaheim at 1.175x the file's OD demand: the heavier of the two ramp
/// points where the total-cost bush solve once stalled at its iteration
/// cap.
const NetworkInstance& anaheim_heavy() {
  static const NetworkInstance inst = [] {
    NetworkInstance scaled = anaheim();
    for (Commodity& com : scaled.commodities) com.demand *= 1.175;
    return scaled;
  }();
  return inst;
}

/// Anaheim at 1.05x the file's OD demand: the middle of the β_M ramp.
const NetworkInstance& anaheim_mid() {
  static const NetworkInstance inst = [] {
    NetworkInstance scaled = anaheim();
    for (Commodity& com : scaled.commodities) com.demand *= 1.05;
    return scaled;
  }();
  return inst;
}

[[maybe_unused]] const bool kSolverThreadsStamped = [] {
  benchmark::AddCustomContext("solver_threads", "1");
  return true;
}();

const NetworkInstance& grid() {
  static const NetworkInstance inst =
      std::get<NetworkInstance>(gen::generate_sized("grid-bpr", 10, 2.0, 7));
  return inst;
}

void fw_slice(benchmark::State& state, const NetworkInstance& inst,
              int iters) {
  const int saved = max_threads_setting();
  set_max_threads(1);
  EquilibriumRequest req;
  req.backend = EquilibriumBackend::kFrankWolfe;
  req.budget.max_iters = iters;
  // Run the full slice; record the achieved gap.
  req.frank_wolfe.rel_gap_tol = 0.0;
  double gap = 0.0;
  for (auto _ : state) {
    const EquilibriumResult r = solve_equilibrium(inst, req);
    gap = r.rel_gap;
    benchmark::DoNotOptimize(r.objective);
  }
  set_max_threads(saved);
  state.counters["rel_gap"] = gap;
  state.counters["iters"] = iters;
}

void bush_to_gap(benchmark::State& state, const NetworkInstance& inst,
                 double tol,
                 FlowObjective objective = FlowObjective::kBeckmann) {
  const int saved = max_threads_setting();
  set_max_threads(1);
  EquilibriumRequest req;
  req.backend = EquilibriumBackend::kBush;
  req.objective = objective;
  req.bush.rel_gap_tol = tol;
  double gap = 0.0;
  int iters = 0;
  for (auto _ : state) {
    const EquilibriumResult r = solve_equilibrium(inst, req);
    if (!solve_ok(r.status)) state.SkipWithError("bush failed to converge");
    gap = r.rel_gap;
    iters = r.iterations;
    benchmark::DoNotOptimize(r.objective);
  }
  set_max_threads(saved);
  state.counters["rel_gap"] = gap;
  state.counters["iters"] = iters;
}

// ---- synthetic Anaheim (416 nodes / 914 links / 380 OD pairs) ----------

void BM_AssignAnaheimFwSlice(benchmark::State& state) {
  fw_slice(state, anaheim(), 200);
}
BENCHMARK(BM_AssignAnaheimFwSlice)->Unit(benchmark::kMillisecond);

void BM_AssignAnaheimBushGap6(benchmark::State& state) {
  bush_to_gap(state, anaheim(), 1e-6);
}
BENCHMARK(BM_AssignAnaheimBushGap6)->Unit(benchmark::kMillisecond);

void BM_AssignAnaheimBushGap10(benchmark::State& state) {
  bush_to_gap(state, anaheim(), 1e-10);
}
BENCHMARK(BM_AssignAnaheimBushGap10)->Unit(benchmark::kMillisecond);

// The system optimum (MOP's first step) on the bush backend.
void BM_AssignAnaheimBushTotalCost(benchmark::State& state) {
  bush_to_gap(state, anaheim_heavy(), 1e-10, FlowObjective::kTotalCost);
}
BENCHMARK(BM_AssignAnaheimBushTotalCost)->Unit(benchmark::kMillisecond);

// One cold β_M point: MOP's optimum and induced solves on `backend`.
void mop_point(benchmark::State& state, EquilibriumBackend backend) {
  const int saved = max_threads_setting();
  set_max_threads(1);
  MopOptions opts;
  opts.backend = backend;
  double beta = 0.0;
  double residual = 0.0;
  for (auto _ : state) {
    const MopResult r = mop(anaheim_mid(), opts);
    if (!solve_ok(r.status)) state.SkipWithError("MOP failed to converge");
    beta = r.beta;
    residual = r.induced_residual;
    benchmark::DoNotOptimize(r.induced_cost);
  }
  set_max_threads(saved);
  state.counters["beta"] = beta;
  state.counters["residual"] = residual;
}

void BM_MopAnaheimPe(benchmark::State& state) {
  mop_point(state, EquilibriumBackend::kPathEqualization);
}
BENCHMARK(BM_MopAnaheimPe)->Unit(benchmark::kMillisecond);

void BM_MopAnaheimBush(benchmark::State& state) {
  mop_point(state, EquilibriumBackend::kBush);
}
BENCHMARK(BM_MopAnaheimBush)->Unit(benchmark::kMillisecond);

// ---- generated grid-bpr (multicommodity grid) --------------------------

void BM_AssignGridFwSlice(benchmark::State& state) {
  fw_slice(state, grid(), 200);
}
BENCHMARK(BM_AssignGridFwSlice)->Unit(benchmark::kMillisecond);

void BM_AssignGridBushGap10(benchmark::State& state) {
  bush_to_gap(state, grid(), 1e-10);
}
BENCHMARK(BM_AssignGridBushGap10)->Unit(benchmark::kMillisecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
