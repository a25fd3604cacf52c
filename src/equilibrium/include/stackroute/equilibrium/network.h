// Costs and checkers for equilibria on multicommodity networks (§4
// "Multicommodity networks"). The solves themselves — Nash, optimum and
// the followers' induced equilibrium under a Leader preload — all go
// through solve_equilibrium (solver/backend.h).
#pragma once

#include <span>
#include <vector>

#include "stackroute/network/instance.h"
#include "stackroute/network/paths.h"
#include "stackroute/solver/backend.h"

namespace stackroute {

/// C(f) on the instance's latencies. For an induced solve, C(S+T) is
/// cost(inst, preload + follower flow).
double cost(const NetworkInstance& inst, std::span<const double> edge_flow);

/// Wardrop condition for follower path flows under `preload` (pass an
/// all-zero preload to check a plain Nash flow): for every commodity,
/// every flow-carrying path costs within tol of that commodity's cheapest
/// path, at a-posteriori latencies ℓ_e(τ_e + s_e).
bool satisfies_wardrop(const NetworkInstance& inst,
                       std::span<const std::vector<PathFlow>> commodity_paths,
                       std::span<const double> preload, double tol = 1e-7);

/// C(N)/C(O).
double price_of_anarchy(const NetworkInstance& inst);

}  // namespace stackroute
