// The pluggable equilibrium-backend seam: the one way to solve a network
// equilibrium or optimum.
//
// Every network solve in the library — MOP's optimum and induced solves,
// the Leader strategies' follower solves, tolls, the engine's typed
// requests, sweep metrics, the serve protocol, and every test and bench —
// builds an EquilibriumRequest and calls solve_equilibrium(). The request
// names the convex program (Nash or optimum) and the backend; a non-empty
// preload makes it the followers' induced equilibrium. The three backends
// minimize the same convex program and agree on the equilibrium cost to
// their tolerances; they differ in what they return and where they are
// fast:
//
//   kPathEqualization  explicit path decomposition per commodity (what LLF
//                      and the Wardrop checker need; MOP sums it per
//                      origin); linear convergence; the default — golden
//                      sweep tables are frozen on it.
//   kFrankWolfe        edge flows only; O(1/k) — cheap loose gaps, stalls
//                      at tight ones; kept as cross-check and baseline.
//                      MOP refuses it: it publishes no per-origin flows.
//   kBush              edge flows via per-origin acyclic bushes (Dial's
//                      Algorithm B style); reaches 1e-10-and-below gaps on
//                      city-scale TNTP networks where FW stalls. Its warm
//                      payload holds each origin's flows, what MOP's
//                      step 3 needs.
//
// The backends are private run functions behind solve_equilibrium; their
// headers (traffic_assignment.h, frank_wolfe.h, bush.h) only hold each
// backend's stopping tolerance and warm payload. solve_equilibrium owns the frame every solve shares:
// per-solve counter delta, the backend's trace span ("assign_traffic",
// "frank_wolfe", "bush"), instance validation, latency compilation into
// the caller's SolverWorkspace (the only scratch a solve uses), one
// BudgetGate from EquilibriumRequest::budget, the warm run, and a single
// cold retry when a warm-started run degrades for any reason but the
// deadline — the retry draws on the same gate, so it never gets a fresh
// deadline.
//
// Warm state is backend-tagged: a session or sweep chain that switches
// backend drops the other backend's payload instead of feeding, say, FW
// edge flows to a bush solve (EquilibriumWarmState::prepare).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stackroute/network/instance.h"
#include "stackroute/network/paths.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/bush.h"
#include "stackroute/solver/frank_wolfe.h"
#include "stackroute/solver/objective.h"
#include "stackroute/solver/status.h"
#include "stackroute/solver/traffic_assignment.h"
#include "stackroute/solver/workspace.h"

namespace stackroute {

enum class EquilibriumBackend : std::uint8_t {
  kPathEqualization = 0,
  kFrankWolfe = 1,
  kBush = 2,
};

/// Canonical short name ("pe", "fw", "bush") — what tables, the CLI and
/// the serve protocol print.
const char* to_string(EquilibriumBackend backend) noexcept;

/// All registered backends, in enum order.
std::span<const EquilibriumBackend> equilibrium_backends() noexcept;

/// The canonical names joined for usage/error text: "pe, fw or bush".
const char* equilibrium_backend_names() noexcept;

/// Parses a canonical name or its long alias ("path-equalization",
/// "frank-wolfe"); throws stackroute::Error naming the accepted values on
/// anything else.
EquilibriumBackend parse_equilibrium_backend(std::string_view name);

/// One equilibrium solve, backend-agnostically: which backend, which
/// convex program, each backend's stopping tolerance, one budget.
struct EquilibriumRequest {
  EquilibriumBackend backend = EquilibriumBackend::kPathEqualization;
  FlowObjective objective = FlowObjective::kBeckmann;
  /// Tolerance of the backend that runs; the others are ignored.
  AssignmentOptions assignment;
  FrankWolfeOptions frank_wolfe;
  BushOptions bush;
  /// The solve's resource limits, whichever backend runs: the only
  /// iteration cap (equalization steps / FW iterations / bush iterations)
  /// and the wall-clock deadline. Inactive by default; see status.h. Pass
  /// an armed budget to share one deadline across several solves.
  SolveBudget budget;
};

/// The one result type of every backend: edge flows plus the honest
/// quality bound in the backend's native metric (spread for path
/// equalization, relative gap for FW/bush; the unused one stays 0). A
/// degraded status means the flows are the best-so-far feasible state with
/// that bound.
struct EquilibriumResult {
  std::vector<double> edge_flow;  // total over commodities, by EdgeId
  /// Path decomposition — kPathEqualization only (empty otherwise).
  std::vector<std::vector<PathFlow>> commodity_paths;
  double objective = 0.0;  // Beckmann or total cost, per FlowObjective
  double spread = 0.0;
  double rel_gap = 0.0;
  /// Outer sweeps (path equalization) or iterations (FW, bush).
  int iterations = 0;
  SolveStatus status = SolveStatus::kConverged;
  /// This solve's work counters — all zero unless the calling thread had a
  /// counter sink installed (obs::CountersScope).
  obs::SolveCounters counters;
};

/// Backend-tagged warm payload for chained solves. Exactly one payload is
/// meaningful at a time — the one matching `backend`; prepare() enforces
/// that on every backend switch.
struct EquilibriumWarmState {
  EquilibriumBackend backend = EquilibriumBackend::kPathEqualization;
  /// kPathEqualization: converged path decomposition + demand snapshot.
  AssignmentWarmStart paths;
  /// kFrankWolfe: converged edge flow + the per-commodity demands it
  /// routed (the proportionality certificate FW's projection needs; their
  /// sum in commodity order is the total demand it was converged at).
  std::vector<double> fw_flow;
  std::vector<double> fw_demands;
  /// kBush: the per-origin bushes.
  BushWarmState bush;

  [[nodiscard]] bool empty() const {
    return paths.empty() && fw_flow.empty() && bush.empty();
  }
  /// Drops every payload (shrinking nothing; buffers are reused).
  void clear();
  /// Retags for `next`, clearing all payloads on a backend switch — stale
  /// cross-backend state never seeds a solve.
  void prepare(EquilibriumBackend next);
};

/// Solves the requested program with the requested backend on `ws`,
/// seeding from `warm_in` when its tag and payload fit (see each backend's
/// warm contract) and, when `warm_out` is non-null, publishing the
/// converged state back for the next solve in the chain (path equalization
/// and FW always publish; bush clears the payload instead on
/// kNumericFailure). `warm_in` and `warm_out` may alias. With a preload,
/// `edge_flow` is the followers' flow only; the combined cost C(S+T) is
/// cost(inst, preload + edge_flow) (see equilibrium/network.h). Throws on
/// malformed instances.
EquilibriumResult solve_equilibrium(const NetworkInstance& inst,
                                    std::span<const double> preload,
                                    const EquilibriumRequest& req,
                                    SolverWorkspace& ws,
                                    const EquilibriumWarmState* warm_in,
                                    EquilibriumWarmState* warm_out);

/// Convenience for tests, benches and examples: one cold solve of `req` on
/// a private workspace.
EquilibriumResult solve_equilibrium(const NetworkInstance& inst,
                                    const EquilibriumRequest& req,
                                    std::span<const double> preload = {});

/// Same with default options on the default backend (path equalization) —
/// solve_equilibrium(inst) for the Nash flow, (inst,
/// FlowObjective::kTotalCost) for the optimum, (inst,
/// FlowObjective::kBeckmann, preload) for the induced flow.
EquilibriumResult solve_equilibrium(
    const NetworkInstance& inst,
    FlowObjective objective = FlowObjective::kBeckmann,
    std::span<const double> preload = {});

}  // namespace stackroute
