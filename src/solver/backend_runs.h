// The three backend runs behind solve_equilibrium — private to the solver
// module (backend.cpp owns the frame around them; see solver/backend.h).
//
// A run is one seed + iterate pass of one backend. It expects the frame to
// have validated the instance and compiled the effective latencies into
// ws.table, counts its work into whatever counter sink is installed, and
// takes its iteration cap and deadline from `gate`. `warm` is the
// caller's payload, already matched to the backend by tag (null = cold);
// the run checks that the payload fits the instance and reports in
// `used_warm` whether it actually started from it, which is what arms the
// frame's single cold retry.
#pragma once

#include "stackroute/solver/backend.h"

namespace stackroute::detail {

using BackendRun = EquilibriumResult (*)(const NetworkInstance& inst,
                                         const EquilibriumRequest& req,
                                         BudgetGate& gate, SolverWorkspace& ws,
                                         const EquilibriumWarmState* warm,
                                         bool& used_warm);

/// kPathEqualization (traffic_assignment.cpp).
EquilibriumResult assign_run(const NetworkInstance& inst,
                             const EquilibriumRequest& req, BudgetGate& gate,
                             SolverWorkspace& ws,
                             const EquilibriumWarmState* warm,
                             bool& used_warm);

/// kFrankWolfe (frank_wolfe.cpp).
EquilibriumResult fw_run(const NetworkInstance& inst,
                         const EquilibriumRequest& req, BudgetGate& gate,
                         SolverWorkspace& ws, const EquilibriumWarmState* warm,
                         bool& used_warm);

/// kBush (bush.cpp). The final bushes stay in ws.bush.state for the frame
/// to publish.
EquilibriumResult bush_run(const NetworkInstance& inst,
                           const EquilibriumRequest& req, BudgetGate& gate,
                           SolverWorkspace& ws,
                           const EquilibriumWarmState* warm, bool& used_warm);

}  // namespace stackroute::detail
