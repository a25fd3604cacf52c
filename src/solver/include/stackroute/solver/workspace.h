// Reusable scratch for the solver hot paths — the only scratch a solve
// needs from its caller.
//
// solve_equilibrium compiles the effective latencies into a LatencyTable
// and runs every backend's inner loops on preallocated buffers from one of
// these; water_fill and MOP's tight-subgraph step do the same. The
// per-iteration loops are allocation-free either way, while callers that
// solve repeatedly (OpTop's rounds, MOP's optimum + induced solves, sweep
// chains, engine sessions) pass one workspace across calls so even the
// per-call setup stops allocating once the buffers have grown to the
// instance size.
//
// Buffers are sized on use and never shrunk; a workspace carries no state
// between calls beyond capacity (delta_mask is the one exception: it must
// stay all-zero between equalization steps, which equalize_once maintains
// by construction). Fan-outs over the thread pool use thread_local
// Dijkstra scratch instead, since one workspace is one thread's.
//
// The compiled latency table is additionally *reused across calls* when the
// latency set is pointer-identical to the previous call's (see
// LatencyTable::ensure_compiled): a chained sweep re-solving the same
// network at a new demand skips recompilation entirely, and
// instance_revision() exposes the tag that proves when a topology change
// forced one.
#pragma once

#include <cstdint>
#include <vector>

#include "stackroute/latency/table.h"
#include "stackroute/network/dijkstra.h"
#include "stackroute/network/paths.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/bush.h"

namespace stackroute {

struct SolverWorkspace {
  LatencyTable table;             // compiled effective latencies
  DijkstraWorkspace dijkstra;     // shortest-path buffers (serial contexts;
                                  // parallel fan-outs use thread_local ones)
  std::vector<double> costs;      // per-edge costs, maintained incrementally
  std::vector<double> direction;  // Frank–Wolfe: AON flow minus current flow
  std::vector<double> aon_flow;   // Frank–Wolfe: all-or-nothing edge flows
  std::vector<EdgeId> nonzero;    // Frank–Wolfe: edges with direction != 0
  std::vector<double> dists;      // per-commodity shortest-path distances
  std::vector<Path> paths;        // per-commodity path buffers
  Path path_scratch;              // single-path buffer (equalization)
  std::vector<int> delta_mask;    // equalization ±1 mask; all-zero at rest
  std::vector<double> weights;    // water-filling residual weights
  std::vector<std::uint64_t> settled_scratch;  // per-commodity Dijkstra
                                               // settled counts, summed on
                                               // the calling thread after
                                               // parallel fan-outs

  /// Bush backend scratch: per-node labels and trees of the origin being
  /// improved, the shift segments, and the live bushes of the solve (moved
  /// out into the warm state when the caller asks for it).
  struct BushScratch {
    std::vector<std::int32_t> pos;     // node -> position in topo order
    std::vector<double> dmin;          // min-path cost from origin, per node
    std::vector<double> dmax;          // max-path cost from origin
    std::vector<EdgeId> pmin;          // min-tree parent edge, per node
    std::vector<EdgeId> pmax;          // max-tree parent edge, per node
    std::vector<std::int32_t> indeg;   // bush in-degrees (drop rule)
    std::vector<double> total_flow;    // summed origin flows, by EdgeId
    std::vector<EdgeId> seg_max;       // max-segment edges of one shift
    std::vector<EdgeId> seg_min;       // min-segment edges of one shift
    std::vector<OriginBush> state;     // the live bushes during a solve
  } bush;

  /// Cumulative solver-work counters of every counted solve run on this
  /// workspace (see obs/counters.h). Collection is opt-in: install the
  /// workspace's counters as the thread's sink —
  ///   obs::CountersScope scope(ws.counters);
  /// — and each solve's ScopedCounterDelta merges its delta in here.
  /// Untouched (all zero) when no scope is installed.
  obs::SolveCounters counters;

  /// Instance-revision tag: bumps whenever a solve actually recompiled the
  /// latency table (topology or latency objects changed), stays put when
  /// only scalar knobs (demand, preload-free re-solves) did.
  [[nodiscard]] std::uint64_t instance_revision() const {
    return table.revision();
  }
};

}  // namespace stackroute
