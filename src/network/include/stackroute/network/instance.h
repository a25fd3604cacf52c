// Routing instances: parallel links (M, r) and multicommodity networks
// (G, r₁..r_k) — the two input shapes of the paper's algorithms.
#pragma once

#include <span>
#include <vector>

#include "stackroute/network/graph.h"

namespace stackroute {

/// An s–t system of m parallel links sharing total flow `demand` (§4).
struct ParallelLinks {
  std::vector<LatencyPtr> links;
  double demand = 0.0;

  [[nodiscard]] std::size_t size() const { return links.size(); }

  /// Throws stackroute::Error unless the instance is well-formed: at least
  /// one link, demand > 0, and total capacity (finite capacities only)
  /// exceeding the demand.
  void validate() const;
};

/// One source/destination pair (s_i, t_i) with flow demand r_i > 0.
struct Commodity {
  NodeId source = kInvalidNode;
  NodeId sink = kInvalidNode;
  double demand = 0.0;
};

/// A directed network shared by k >= 1 commodities of selfish flow.
struct NetworkInstance {
  Graph graph;
  std::vector<Commodity> commodities;

  [[nodiscard]] double total_demand() const;

  /// Throws stackroute::Error unless well-formed: >= 1 commodity, each with
  /// positive demand, distinct endpoints, and at least one connecting path.
  void validate() const;
};

/// Commodities sharing a source: the unit the origin-based algorithms
/// work on (the bush backend's bushes, MOP's per-origin step 3).
struct OriginGroup {
  NodeId origin = kInvalidNode;
  std::vector<std::size_t> commodities;  // indices, in commodity order
};

/// The instance's commodities grouped by source, ascending by source.
std::vector<OriginGroup> group_by_origin(const NetworkInstance& inst);

/// Views an s–t parallel-links system as a two-node network; link i becomes
/// EdgeId i, so flows translate index-for-index.
NetworkInstance to_network(const ParallelLinks& m);

/// Restriction of `m` to the given links with a new total flow — the
/// "simplified subnetwork" OpTop recurses on (step 4 of the algorithm).
ParallelLinks subsystem(const ParallelLinks& m, std::span<const int> link_ids,
                        double demand);

}  // namespace stackroute
