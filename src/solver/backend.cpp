#include "stackroute/solver/backend.h"

#include <string>
#include <utility>

#include "backend_runs.h"
#include "stackroute/obs/trace.h"
#include "stackroute/util/error.h"

namespace stackroute {

namespace {

constexpr EquilibriumBackend kBackends[] = {
    EquilibriumBackend::kPathEqualization,
    EquilibriumBackend::kFrankWolfe,
    EquilibriumBackend::kBush,
};

/// Per backend, in enum order: its run and its trace span name.
struct BackendEntry {
  detail::BackendRun run;
  const char* span;
};
constexpr BackendEntry kEntries[] = {
    {detail::assign_run, "assign_traffic"},
    {detail::fw_run, "frank_wolfe"},
    {detail::bush_run, "bush"},
};

/// The per-commodity demands a warm payload was converged at.
void snapshot_demands(const NetworkInstance& inst, std::vector<double>& out) {
  out.clear();
  for (const Commodity& com : inst.commodities) out.push_back(com.demand);
}

/// Hands the converged state of `out` (and, for bush, the live bushes left
/// in the workspace) to the next solve in the chain.
void publish(const NetworkInstance& inst, EquilibriumBackend backend,
             const EquilibriumResult& out, SolverWorkspace& ws,
             EquilibriumWarmState& warm) {
  warm.prepare(backend);
  switch (backend) {
    case EquilibriumBackend::kPathEqualization:
      warm.paths.commodity_paths = out.commodity_paths;
      snapshot_demands(inst, warm.paths.demands);
      break;
    case EquilibriumBackend::kFrankWolfe:
      warm.fw_flow = out.edge_flow;
      snapshot_demands(inst, warm.fw_demands);
      break;
    case EquilibriumBackend::kBush:
      if (out.status == SolveStatus::kNumericFailure) {
        warm.clear();  // never republish a poisoned state
      } else {
        warm.bush.bushes = std::move(ws.bush.state);
        warm.bush.commodities = inst.commodities;
        ws.bush.state.clear();
      }
      break;
  }
}

}  // namespace

const char* to_string(EquilibriumBackend backend) noexcept {
  switch (backend) {
    case EquilibriumBackend::kPathEqualization:
      return "pe";
    case EquilibriumBackend::kFrankWolfe:
      return "fw";
    case EquilibriumBackend::kBush:
      return "bush";
  }
  return "pe";  // unreachable for in-range values
}

std::span<const EquilibriumBackend> equilibrium_backends() noexcept {
  return kBackends;
}

const char* equilibrium_backend_names() noexcept { return "pe, fw or bush"; }

EquilibriumBackend parse_equilibrium_backend(std::string_view name) {
  if (name == "pe" || name == "path-equalization") {
    return EquilibriumBackend::kPathEqualization;
  }
  if (name == "fw" || name == "frank-wolfe") {
    return EquilibriumBackend::kFrankWolfe;
  }
  if (name == "bush") return EquilibriumBackend::kBush;
  throw Error("unknown backend '" + std::string(name) + "' (expected " +
              equilibrium_backend_names() + ")");
}

void EquilibriumWarmState::clear() {
  paths.commodity_paths.clear();
  paths.demands.clear();
  fw_flow.clear();
  fw_demands.clear();
  bush.clear();
}

void EquilibriumWarmState::prepare(EquilibriumBackend next) {
  if (backend != next) clear();
  backend = next;
}

EquilibriumResult solve_equilibrium(const NetworkInstance& inst,
                                    std::span<const double> preload,
                                    const EquilibriumRequest& req,
                                    SolverWorkspace& ws,
                                    const EquilibriumWarmState* warm_in,
                                    EquilibriumWarmState* warm_out) {
  const BackendEntry& backend = kEntries[static_cast<int>(req.backend)];
  obs::ScopedCounterDelta tally;
  obs::ScopedSpan span(backend.span);
  inst.validate();
  ws.table.ensure_compiled(effective_latencies(inst.graph, preload));

  // One gate for the whole call: a cold retry after a degraded warm run
  // inherits whatever deadline is left, not a fresh one.
  BudgetGate gate(req.budget);
  const EquilibriumWarmState* seed =
      warm_in != nullptr && warm_in->backend == req.backend ? warm_in
                                                            : nullptr;
  bool used_warm = false;
  EquilibriumResult out = backend.run(inst, req, gate, ws, seed, used_warm);

  // Warm-start guard: a warm seed that went numerically bad, stalled, or
  // exhausted its iteration cap without converging gets one cold retry —
  // the seed, not the instance, is the prime suspect. A deadline hit is
  // not retried (no time left to retry with).
  if (used_warm && !solve_ok(out.status) &&
      out.status != SolveStatus::kDeadlineExceeded) {
    obs::count(&obs::SolveCounters::warm_fallbacks);
    out = backend.run(inst, req, gate, ws, nullptr, used_warm);
  }

  if (warm_out != nullptr) publish(inst, req.backend, out, ws, *warm_out);
  if (tally.active()) out.counters = tally.current();
  return out;
}

EquilibriumResult solve_equilibrium(const NetworkInstance& inst,
                                    const EquilibriumRequest& req,
                                    std::span<const double> preload) {
  SolverWorkspace ws;
  return solve_equilibrium(inst, preload, req, ws, nullptr, nullptr);
}

EquilibriumResult solve_equilibrium(const NetworkInstance& inst,
                                    FlowObjective objective,
                                    std::span<const double> preload) {
  EquilibriumRequest req;
  req.objective = objective;
  return solve_equilibrium(inst, req, preload);
}

}  // namespace stackroute
