// Nash, optimum and induced equilibria on s–t parallel links (§4 model),
// via water-filling, plus the condition checkers the structural theorems
// of the paper are stated in terms of.
#pragma once

#include <span>
#include <vector>

#include "stackroute/network/instance.h"
#include "stackroute/solver/water_filling.h"

namespace stackroute {

// Every solve below is one water_fill (solver/water_filling.h, which also
// defines LinkAssignment) and takes its trailing arguments, all optional:
// ws (OpTop's round recursion and the engine's sessions pass theirs),
// level_hint and budget. Pass an armed budget to share one deadline across
// a pipeline.

/// The Nash assignment N of (M, r): unique for strictly increasing
/// latencies; with constant links, unique up to the cost-invariant split
/// of plateau flow (Remark 2.5).
LinkAssignment solve_nash(const ParallelLinks& m,
                          SolverWorkspace* ws = nullptr,
                          double level_hint = kNoLevelHint,
                          const SolveBudget& budget = {});

/// The optimum assignment O of (M, r).
LinkAssignment solve_optimum(const ParallelLinks& m,
                             SolverWorkspace* ws = nullptr,
                             double level_hint = kNoLevelHint,
                             const SolveBudget& budget = {});

/// The induced Nash T of the followers' flow (demand − Σ preload) given
/// the Leader's strategy `preload` (flows are the followers' part only).
LinkAssignment solve_induced(const ParallelLinks& m,
                             std::span<const double> preload,
                             SolverWorkspace* ws = nullptr,
                             double level_hint = kNoLevelHint,
                             const SolveBudget& budget = {});

/// C(X) = Σ_i x_i·ℓ_i(x_i).
double cost(const ParallelLinks& m, std::span<const double> flows);

/// C(S+T) for a Stackelberg strategy S and induced flows T.
double stackelberg_cost(const ParallelLinks& m, std::span<const double> preload,
                        std::span<const double> induced);

/// Remark 4.1: loaded links share a common latency; empty links are no
/// cheaper. Checked with absolute tolerance on the latency scale.
bool satisfies_wardrop(const ParallelLinks& m, std::span<const double> flows,
                       double tol = 1e-7);

/// Remark 4.2: the same, for followers' flows on a-posteriori latencies
/// ℓ_i(t_i + s_i).
bool satisfies_wardrop_induced(const ParallelLinks& m,
                               std::span<const double> preload,
                               std::span<const double> induced,
                               double tol = 1e-7);

/// First-order optimality: loaded links share a common marginal cost;
/// empty links' marginal at zero is no smaller.
bool satisfies_optimality(const ParallelLinks& m,
                          std::span<const double> flows, double tol = 1e-7);

/// C(N)/C(O) — the coordination ratio ρ(M, r) of Expression (1).
double price_of_anarchy(const ParallelLinks& m);

}  // namespace stackroute
