// Measurements shared by the workloads: timed equilibrium solves with an
// independent gap certificate, and the per-layer probes a traced run uses
// to fill in the layers its own ops do not reach (see README.md,
// "Per-layer metrics").
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "stackroute/network/instance.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/backend.h"
#include "stackroute/sweep/runner.h"

namespace perfbench {

/// The synthetic Anaheim instance shipped with the repository (net +
/// trips); paths are relative to the checkout root the benchmark runs in.
extern const char* const kAnaheimNet;
/// Total OD flow of the shipped Anaheim trips file.
constexpr double kAnaheimDemand = 81354.2;
stackroute::NetworkInstance load_anaheim();
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 15;

/// Side of sweep-grid's generated street grids (also what gen.generate_ms
/// times on every workload).
constexpr int kSweepGridSize = 8;

/// Stated accuracy per backend, as a relative gap recomputed from the
/// returned edge flows: bush 1e-10, fw 1e-4, pe 1e-8 (pe converges on a
/// 1e-10 absolute path-cost spread; 1e-8 relative is its stated bound).
double stated_accuracy(stackroute::EquilibriumBackend b);
/// The request that solves to the stated accuracy (Beckmann, no preload).
stackroute::EquilibriumRequest backend_request(stackroute::EquilibriumBackend b);
/// Relative gap (TSTT - SPTT) / TSTT and total cost C(f) of `flow`,
/// computed outside the solver: one LatencyTable evaluation plus one
/// dijkstra per origin. `spt_us`, when given, receives each Dijkstra's
/// wall time in microseconds.
struct Certificate {
  double rel_gap = 0.0;
  double cost = 0.0;
};
Certificate certify(const stackroute::NetworkInstance& inst,
                    std::span<const double> flow,
                    std::vector<double>* spt_us = nullptr);

/// One cold solve_equilibrium on `ws`, timed from outside; the result's
/// status and certificate are checked (failures go to `rep`). Returns the
/// wall time in ms, or a negative value when a check failed.
double timed_solve(const stackroute::NetworkInstance& inst,
                   stackroute::EquilibriumBackend b,
                   stackroute::SolverWorkspace& ws, Report& rep,
                   stackroute::EquilibriumResult* out = nullptr,
                   Certificate* cert = nullptr);

/// Per-op work counters of a workload's ops (dijkstra calls/settled,
/// table batch evaluations, solver steps).
void set_counter_metrics(const stackroute::obs::SolveCounters& total,
                         std::uint64_t ops, Report& rep);

/// sweep.* metrics of one SweepRunner::run that took `wall_ms`.
void set_sweep_metrics(const stackroute::sweep::SweepResult& r,
                       double wall_ms, Report& rep);

/// Everything a traced run adds after its own ops: fills every per-layer
/// metric the workload did not set itself, on the workload's home
/// network `home` and its serve renditions `lines`, then writes the trace.
/// `mop_points` are the instances core.mop_ms and its stage replay run on.
struct Home {
  stackroute::NetworkInstance net;
  std::vector<stackroute::NetworkInstance> mop_points;
  std::vector<std::string> lines;
};
void traced_tail(const Options& o, const Home& home, Report& rep);

/// The common shape of a traced run: `phase(seconds, traced)` runs the
/// workload's ops; one third of the time untraced, one third with spans
/// and counters on. Sets obs.trace_overhead and the self-time shares.
void traced_phases(const Options& o, Report& rep,
                   const std::function<Segments(double, bool)>& phase);

}  // namespace perfbench
