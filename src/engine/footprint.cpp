#include "stackroute/engine/footprint.h"

#include "stackroute/engine/session.h"

namespace stackroute::engine {

namespace {

template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t path_flows_bytes(const std::vector<PathFlow>& paths) {
  std::size_t bytes = vec_bytes(paths);
  for (const PathFlow& pf : paths) bytes += vec_bytes(pf.path);
  return bytes;
}

std::size_t bush_scratch_bytes(const SolverWorkspace::BushScratch& bw) {
  std::size_t bytes = vec_bytes(bw.pos) + vec_bytes(bw.dmin) +
                      vec_bytes(bw.dmax) + vec_bytes(bw.pmin) +
                      vec_bytes(bw.pmax) + vec_bytes(bw.indeg) +
                      vec_bytes(bw.total_flow) + vec_bytes(bw.seg_max) +
                      vec_bytes(bw.seg_min) + vec_bytes(bw.state);
  for (const OriginBush& b : bw.state) bytes += b.footprint_bytes();
  return bytes;
}

}  // namespace

std::size_t footprint_bytes(const ParallelLinks& m) {
  return sizeof(m) + vec_bytes(m.links);
}

std::size_t footprint_bytes(const NetworkInstance& inst) {
  return sizeof(inst) - sizeof(Graph) + inst.graph.footprint_bytes() +
         vec_bytes(inst.commodities);
}

std::size_t footprint_bytes(const Instance& inst) {
  if (const auto* m = std::get_if<ParallelLinks>(&inst)) {
    return footprint_bytes(*m);
  }
  return footprint_bytes(std::get<NetworkInstance>(inst));
}

std::size_t footprint_bytes(const DijkstraWorkspace& ws) {
  return vec_bytes(ws.tree.dist) + vec_bytes(ws.tree.parent_edge) +
         vec_bytes(ws.heap);
}

std::size_t footprint_bytes(const SolverWorkspace& ws) {
  std::size_t bytes = sizeof(ws) + ws.table.footprint_bytes() +
                      footprint_bytes(ws.dijkstra) + vec_bytes(ws.costs) +
                      vec_bytes(ws.direction) + vec_bytes(ws.aon_flow) +
                      vec_bytes(ws.nonzero) + vec_bytes(ws.dists) +
                      vec_bytes(ws.paths) + vec_bytes(ws.path_scratch) +
                      vec_bytes(ws.delta_mask) + vec_bytes(ws.weights) +
                      vec_bytes(ws.settled_scratch) +
                      bush_scratch_bytes(ws.bush);
  for (const Path& p : ws.paths) bytes += vec_bytes(p);
  return bytes;
}

std::size_t footprint_bytes(const AssignmentWarmStart& warm) {
  std::size_t bytes = vec_bytes(warm.commodity_paths) + vec_bytes(warm.demands);
  for (const auto& paths : warm.commodity_paths) {
    bytes += path_flows_bytes(paths);
  }
  return bytes;
}

std::size_t footprint_bytes(const OpTopWarmStart& warm) {
  return vec_bytes(warm.round_levels);
}

std::size_t footprint_bytes(const EquilibriumWarmState& warm) {
  return footprint_bytes(warm.paths) + vec_bytes(warm.fw_flow) +
         vec_bytes(warm.fw_demands) + warm.bush.footprint_bytes();
}

std::size_t footprint_bytes(const SolveSession& session) {
  std::size_t bytes = sizeof(session) - sizeof(SolverWorkspace) +
                      footprint_bytes(session.ws) +
                      footprint_bytes(session.optop);
  for (const EquilibriumWarmState* w :
       {&session.nash, &session.optimum, &session.induced,
        &session.scale_induced, &session.llf_induced}) {
    bytes += footprint_bytes(*w);
  }
  // The anchor instance holds memory even after reset_warm flips has_prev
  // off (the payload is dropped, the buffers may not be) — count what is
  // actually retained.
  bytes += footprint_bytes(session.prev_instance);
  return bytes;
}

}  // namespace stackroute::engine
