// SolveSession: the persistent per-client solver state of the engine, and
// the warm state of one sweep chain. A session owns one SolverWorkspace
// (compiled latency table, Dijkstra/path buffers) plus the converged
// warm-start payloads of the last request it served, and hands them to
// the next request whenever the instances are warm-compatible. Confined to
// one request at a time, hence one thread: the engine serializes a
// session's requests, and a sweep chain owns its session outright.
#pragma once

#include "stackroute/core/optop.h"
#include "stackroute/engine/instance.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/solver/backend.h"
#include "stackroute/solver/workspace.h"

namespace stackroute::engine {

struct SolveSession {
  SolverWorkspace ws;
  bool has_prev = false;
  /// The previous request's instance: warm_compatible's anchor, kept
  /// alive so its pointer-identity policy is sound.
  Instance prev_instance;
  /// Converged equilibrium warm state, one per chained solve role, each
  /// passed in and out of solve_equilibrium (see solver/backend.h). The
  /// Nash state is tagged by whichever backend the last Nash request ran
  /// (switching backends clears it, so a chain that flips backends
  /// re-warms from cold instead of mis-seeding); every other role is a
  /// path-equalization solve.
  EquilibriumWarmState nash;
  EquilibriumWarmState optimum;  // MOP step 1, and plain optimum solves
  EquilibriumWarmState induced;  // MOP step 5: followers under the preload
  EquilibriumWarmState scale_induced;  // baseline followers (α chains)
  EquilibriumWarmState llf_induced;
  OpTopWarmStart optop;  // parallel-links water-filling levels
  /// Water-filling levels of the last plain parallel-links Nash/optimum
  /// solves and baseline follower solves — the warm seeds of the next
  /// chained request (OpTop keeps its own levels in `optop`).
  double nash_level = kNoLevelHint;
  double opt_level = kNoLevelHint;
  double scale_level = kNoLevelHint;
  double llf_level = kNoLevelHint;

  /// Drops the warm payloads (workspace capacity is kept): called when a
  /// task fails or an incompatible instance breaks the chain, so stale
  /// state can never leak across the break.
  void reset_warm();

  /// reset_warm() plus actually releasing the memory: the workspace
  /// (compiled table included) and the anchor instance are swapped with
  /// empty objects, so the session's footprint drops to a few hundred
  /// bytes. The engine calls this on idle sessions when the session byte
  /// budget is exceeded — the session stays open and correct, its next
  /// request just starts cold and re-grows the buffers.
  void shed_memory();
};

}  // namespace stackroute::engine
