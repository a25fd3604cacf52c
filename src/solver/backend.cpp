#include "stackroute/solver/backend.h"

#include <cmath>
#include <string>
#include <utility>

#include "stackroute/util/error.h"

namespace stackroute {

namespace {

constexpr EquilibriumBackend kBackends[] = {
    EquilibriumBackend::kPathEqualization,
    EquilibriumBackend::kFrankWolfe,
    EquilibriumBackend::kBush,
};

/// Frank–Wolfe's warm contract is proportionality of the commodity split
/// (see frank_wolfe.h) — a bare edge flow cannot prove it, so the warm
/// state carries the demand snapshot and this check compares against it.
bool fw_seed_usable(const EquilibriumWarmState& warm,
                    const NetworkInstance& inst) {
  const auto ne = static_cast<std::size_t>(inst.graph.num_edges());
  if (warm.fw_flow.size() != ne || !(warm.fw_demand > 0.0)) return false;
  if (warm.fw_demands.size() != inst.commodities.size()) return false;
  const double ratio = inst.total_demand() / warm.fw_demand;
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    const double got = inst.commodities[i].demand;
    if (std::fabs(got - warm.fw_demands[i] * ratio) >
        1e-12 * std::fmax(1.0, std::fabs(got))) {
      return false;
    }
  }
  return true;
}

/// The fields every backend's result shares.
template <typename BackendResult>
void take_common(EquilibriumResult& out, BackendResult& r) {
  out.edge_flow = std::move(r.edge_flow);
  out.objective = r.objective;
  out.status = r.status;
  out.counters = r.counters;
}

/// The per-commodity demands a warm payload was converged at.
void snapshot_demands(const NetworkInstance& inst, std::vector<double>& out) {
  out.clear();
  for (const Commodity& com : inst.commodities) out.push_back(com.demand);
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
  fw_demand = 0.0;
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
  EquilibriumResult out;
  switch (req.backend) {
    case EquilibriumBackend::kPathEqualization: {
      AssignmentOptions opts = req.assignment;
      if (req.budget.active()) opts.budget = req.budget;
      const AssignmentWarmStart* seed = nullptr;
      if (warm_in != nullptr &&
          warm_in->backend == EquilibriumBackend::kPathEqualization) {
        seed = &warm_in->paths;
      }
      static const AssignmentWarmStart kCold;
      AssignmentResult r = assign_traffic(inst, req.objective, preload, opts,
                                          ws, seed != nullptr ? *seed : kCold);
      take_common(out, r);
      out.commodity_paths = std::move(r.commodity_paths);
      out.spread = r.spread;
      out.iterations = r.sweeps;
      if (warm_out != nullptr) {
        warm_out->prepare(EquilibriumBackend::kPathEqualization);
        warm_out->paths.commodity_paths = out.commodity_paths;
        snapshot_demands(inst, warm_out->paths.demands);
      }
      break;
    }
    case EquilibriumBackend::kFrankWolfe: {
      FrankWolfeOptions opts = req.frank_wolfe;
      if (req.budget.active()) opts.budget = req.budget;
      std::span<const double> seed_flow = {};
      double seed_demand = 0.0;
      if (warm_in != nullptr &&
          warm_in->backend == EquilibriumBackend::kFrankWolfe &&
          fw_seed_usable(*warm_in, inst)) {
        seed_flow = warm_in->fw_flow;
        seed_demand = warm_in->fw_demand;
      }
      FrankWolfeResult r = frank_wolfe(inst, req.objective, preload, opts, ws,
                                       seed_flow, seed_demand);
      take_common(out, r);
      out.rel_gap = r.rel_gap;
      out.iterations = r.iterations;
      if (warm_out != nullptr) {
        warm_out->prepare(EquilibriumBackend::kFrankWolfe);
        warm_out->fw_flow = out.edge_flow;
        warm_out->fw_demand = inst.total_demand();
        snapshot_demands(inst, warm_out->fw_demands);
      }
      break;
    }
    case EquilibriumBackend::kBush: {
      BushOptions opts = req.bush;
      if (req.budget.active()) opts.budget = req.budget;
      static thread_local BushWorkspace tl_bush_ws;  // scratch only; sized on
                                                     // use, carries no state
      const BushWarmState* seed = nullptr;
      if (warm_in != nullptr && warm_in->backend == EquilibriumBackend::kBush) {
        seed = &warm_in->bush;
      }
      BushWarmState* publish = nullptr;
      if (warm_out != nullptr) {
        // Retag before the solve: when warm_in aliases warm_out and the tag
        // already matches, prepare() keeps the payload the solve reads.
        warm_out->prepare(EquilibriumBackend::kBush);
        publish = &warm_out->bush;
      }
      BushResult r = solve_bush(inst, req.objective, preload, opts, ws,
                                tl_bush_ws, seed, publish);
      take_common(out, r);
      out.rel_gap = r.rel_gap;
      out.iterations = r.iterations;
      break;
    }
  }
  return out;
}

EquilibriumResult solve_equilibrium(const NetworkInstance& inst,
                                    FlowObjective objective,
                                    std::span<const double> preload) {
  EquilibriumRequest req;
  req.objective = objective;
  SolverWorkspace ws;
  return solve_equilibrium(inst, preload, req, ws, nullptr, nullptr);
}

}  // namespace stackroute
