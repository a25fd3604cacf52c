// Origin-based bush assignment (Dial's Algorithm B / iTAPAS style) — the
// kBush backend of solve_equilibrium (solver/backend.h), which is its only
// entry point; this header holds its tolerance and its warm-state payload.
//
// Groups commodities by origin and maintains, per origin, an acyclic
// subgraph (a "bush") that carries all of that origin's flow. Each outer
// iteration measures the relative gap ((c·f − SPTT)/c·f, identical to the
// Frank–Wolfe gap) with one full-graph Dijkstra per origin — parallelized
// across origins on the existing thread pool — then sequentially, origin
// by origin, (a) improves the bush (drops zero-flow edges, adds each edge
// that is strictly shorter than the longest bush path to its head — the
// longest-label rule, under which no addition can close a cycle — and
// re-sorts the nodes by that label) and (b) equilibrates it with Newton
// flow shifts from the max-cost to the min-cost path segment below their
// divergence node. Shifts re-evaluate the touched edge costs
// immediately, so the method reaches gaps near machine precision where
// Frank–Wolfe's O(1/k) tail stalls — the reason this backend exists. For
// kTotalCost the Newton step slope is 2·ℓ' plus a finite-difference
// estimate of x·ℓ'' — shifts are clipped and costs re-evaluated, so the
// fixed point is the equal-marginal flow.
//
// Determinism: the shift phase is strictly sequential in origin order and
// the parallel Dijkstra fan-out only fills per-origin slots that are
// reduced in index order on the calling thread, so results (and counters)
// are bitwise identical at any thread count — the same contract the other
// solvers honor.
#pragma once

#include <cstddef>
#include <vector>

#include "stackroute/network/instance.h"

namespace stackroute {

struct BushOptions {
  /// Stop when (c·f − SPTT)/max(c·f, eps) <= rel_gap_tol. Tight by
  /// default: closing such gaps is this solver's purpose.
  double rel_gap_tol = 1e-10;
};

/// One origin's bush: a topological order over the nodes it reaches, the
/// edge set consistent with that order, and the origin's edge flows.
struct OriginBush {
  NodeId origin = kInvalidNode;
  std::vector<NodeId> order;    // topological order (origin first)
  std::vector<char> in_bush;    // by EdgeId
  std::vector<double> flow;     // by EdgeId, this origin's share

  [[nodiscard]] std::size_t footprint_bytes() const;
};

/// Converged state of a prior bush solve on the *same* graph and latencies
/// at (possibly) different demands — the warm-start payload for chained
/// solves along a sweep axis. Bushes and flows are seeded scaled by the
/// proportional demand ratio. Mirrors the Frank–Wolfe warm contract:
/// the payload is structurally validated (edge counts, origin set, sinks,
/// per-commodity demand proportionality against the snapshot below) and an
/// ill-fitting payload falls back to the cold start, but topology identity
/// of the graph itself is the caller's unchecked precondition. A solve
/// that ends in kNumericFailure clears the payload instead of publishing,
/// so a poisoned state never seeds the next solve.
struct BushWarmState {
  std::vector<OriginBush> bushes;       // ascending by origin
  /// The commodities those bushes routed (endpoints + demands snapshot).
  std::vector<Commodity> commodities;

  [[nodiscard]] bool empty() const { return bushes.empty(); }
  void clear() {
    bushes.clear();
    commodities.clear();
  }
  [[nodiscard]] std::size_t footprint_bytes() const;
};

}  // namespace stackroute
