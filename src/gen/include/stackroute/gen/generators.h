// Seeded instance generators — the workload engine behind the sweep
// scenarios, the `stackroute-sweep --generate` mode and the scaling
// benches.
//
// Every generator is a pure function of a (spec, seed) pair: it derives
// all randomness from its own Rng seeded with the given seed, touches no
// global state, and therefore yields bitwise-identical instances on every
// call — the property the sweep engine's determinism contract (runner.h)
// rests on at any thread count. Structural parameters live in small
// typed spec structs; the string-keyed front door for CLIs and sweep
// registries is registry.h.
#pragma once

#include <cstdint>
#include <variant>

#include "stackroute/network/instance.h"

namespace stackroute::gen {

/// Either input shape of the paper's algorithms. Structurally identical
/// to engine::Instance, so generated instances flow into the sweep layer
/// without conversion.
using GeneratedInstance = std::variant<ParallelLinks, NetworkInstance>;

// ---- Road-style grids ----------------------------------------------------

/// rows x cols lattice with BPR latencies drawn from the given ranges.
/// Planar mode wires rightward/downward one-way streets (a DAG, NW corner
/// to SE corner); torus mode adds the wrap-around edges in both
/// directions, making every row/column a ring (the single commodity still
/// runs NW corner -> SE corner, but may now route the "short way round").
struct GridSpec {
  int rows = 4;
  int cols = 4;
  bool torus = false;
  double demand = 1.0;
  double t0_lo = 0.5, t0_hi = 2.0;    // BPR free-flow time range
  double cap_lo = 0.8, cap_hi = 2.5;  // BPR capacity range
  double bpr_b = 0.15;
  double bpr_power = 4.0;
};
NetworkInstance make_grid(const GridSpec& spec, std::uint64_t seed);

// ---- Series-parallel networks --------------------------------------------

/// Random series-parallel s-t network by recursive composition: a
/// depth-0 component is a single edge with a random affine latency; at
/// depth d > 0 the component is, with probability parallel_prob, a
/// parallel composition of 2..max_branch depth-(d-1) components, and
/// otherwise a series composition of two of them through a fresh node.
/// The family "Stackelberg Network Pricing Games" prices over.
struct SeriesParallelSpec {
  int depth = 3;               // recursion depth (<= 10; edges <= branch^depth)
  double parallel_prob = 0.5;  // P(parallel composition) at inner levels
  int max_branch = 3;          // parallel composition width, drawn in [2, this]
  double demand = 1.0;
  double slope_lo = 0.2, slope_hi = 2.0;       // affine slope range
  double intercept_lo = 0.0, intercept_hi = 1.0;  // affine intercept range
};
NetworkInstance make_series_parallel(const SeriesParallelSpec& spec,
                                     std::uint64_t seed);

// ---- Braess ladders ------------------------------------------------------

/// `rungs` copies of the classic Braess diamond (generators.h
/// braess_classic: sv: x, sw: 1, vw: 0, vt: 1, wt: x) chained in series,
/// cell i's sink doubling as cell i+1's source. jitter > 0 perturbs every
/// nonzero slope/intercept multiplicatively by (1 +/- jitter), so each
/// cell paradoxes at a slightly different demand; jitter = 0 reproduces
/// the exact ladder independent of the seed.
struct BraessLadderSpec {
  int rungs = 2;
  double demand = 1.0;
  double jitter = 0.0;  // in [0, 1)
};
NetworkInstance make_braess_ladder(const BraessLadderSpec& spec,
                                   std::uint64_t seed);

// ---- Random DAGs ---------------------------------------------------------

/// Random DAG on `nodes` topologically ordered nodes, s = 0, t = nodes-1:
/// the spine i -> i+1 is always present (guaranteeing s-t connectivity
/// through every node), and each skip edge i -> j, j > i+1, appears with
/// probability edge_prob. Affine latencies.
struct DagSpec {
  int nodes = 12;
  double edge_prob = 0.3;
  double demand = 1.0;
  double slope_lo = 0.2, slope_hi = 2.0;
  double intercept_lo = 0.0, intercept_hi = 1.0;
};
NetworkInstance make_random_dag(const DagSpec& spec, std::uint64_t seed);

// ---- Parallel-links families ---------------------------------------------

/// Random s-t parallel-links systems — the paper's primary input shape.
/// kCommonSlope is the parameterized Theorem 2.4 / §6 hard-instance
/// family (all links a.x + b_i with one common slope a and strictly
/// increasing intercepts), where the optimal Stackelberg strategy below
/// beta is computable exactly (core/hard_instances.h); the others wrap
/// the network/generators.h samplers with seeded determinism.
struct ParallelFamilySpec {
  enum class Family {
    kAffine,       // independent slopes and intercepts
    kCommonSlope,  // the Thm 2.4 hard instances: one slope, sorted intercepts
    kPolynomial,   // random degree <= max_degree, nonneg coefficients
    kMm1,          // M/M/1 links, service rates scaled to clear the demand
  };
  Family family = Family::kAffine;
  int links = 8;
  double demand = 1.0;
  double slope = 1.0;     // kCommonSlope: the common slope a > 0
  int max_degree = 3;     // kPolynomial
  double mu_margin = 1.5; // kMm1: total capacity = mu_margin * demand (> 1)
};
ParallelLinks make_parallel_family(const ParallelFamilySpec& spec,
                                   std::uint64_t seed);

}  // namespace stackroute::gen
