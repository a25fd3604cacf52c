#include "stackroute/solver/objective.h"

#include "stackroute/latency/families.h"
#include "stackroute/obs/counters.h"
#include "stackroute/util/error.h"
#include "stackroute/util/fault.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/parallel.h"

namespace stackroute {

std::vector<LatencyPtr> effective_latencies(const Graph& g,
                                            std::span<const double> preload) {
  std::vector<LatencyPtr> lat = g.latencies();
  if (preload.empty()) return lat;
  SR_REQUIRE(preload.size() == lat.size(),
             "preload vector must have one entry per edge");
  for (std::size_t e = 0; e < lat.size(); ++e) {
    SR_REQUIRE(preload[e] >= -1e-12, "preload must be non-negative");
    if (preload[e] > 0.0) {
      lat[e] = make_shifted(std::move(lat[e]), preload[e]);
    }
  }
  return lat;
}

void edge_costs(const LatencyTable& lat, std::span<const double> flow,
                FlowObjective objective, std::span<double> out) {
  SR_REQUIRE(lat.size() == flow.size() && out.size() == lat.size(),
             "edge cost size mismatch");
  obs::count(&obs::SolveCounters::table_batch_evals);
  parallel_for(lat.size(), [&](std::size_t e) {
    out[e] = edge_cost_at(lat, e, flow[e], objective);
  });
  // Fault-injection seam: each batch evaluation is one event, corrupted
  // after the join on the calling thread (the armed scope is thread-local,
  // so this stays invariant under the worker count). One thread-local load
  // and branch when no plan is armed.
  if (fault::armed()) {
    double bad;
    if (fault::next_eval_faulted(bad) && !out.empty()) {
      out[(out.size() - 1) / 2] = bad;
    }
  }
}

double objective_value(std::span<const LatencyPtr> lat,
                       std::span<const double> flow, FlowObjective objective) {
  SR_REQUIRE(lat.size() == flow.size(), "objective size mismatch");
  return parallel_sum(lat.size(), [&](std::size_t e) {
    return objective == FlowObjective::kBeckmann
               ? lat[e]->integral(flow[e])
               : flow[e] * lat[e]->value(flow[e]);
  });
}

double objective_value(const LatencyTable& lat, std::span<const double> flow,
                       FlowObjective objective) {
  SR_REQUIRE(lat.size() == flow.size(), "objective size mismatch");
  obs::count(&obs::SolveCounters::table_batch_evals);
  return parallel_sum(lat.size(), [&](std::size_t e) {
    return objective == FlowObjective::kBeckmann
               ? lat.integral(e, flow[e])
               : flow[e] * lat.value(e, flow[e]);
  });
}

double total_cost(std::span<const LatencyPtr> lat,
                  std::span<const double> flow) {
  return objective_value(lat, flow, FlowObjective::kTotalCost);
}

double total_cost(const LatencyTable& lat, std::span<const double> flow) {
  return objective_value(lat, flow, FlowObjective::kTotalCost);
}

}  // namespace stackroute
