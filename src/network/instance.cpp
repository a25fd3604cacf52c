#include "stackroute/network/instance.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

void ParallelLinks::validate() const {
  SR_REQUIRE(!links.empty(), "parallel-links instance needs >= 1 link");
  SR_REQUIRE(demand > 0.0 && std::isfinite(demand),
             "parallel-links instance needs demand > 0");
  for (const auto& link : links) {
    SR_REQUIRE(link != nullptr, "parallel-links instance has a null link");
  }
  double cap = 0.0;
  bool unbounded = false;
  for (const auto& link : links) {
    const double c = link->capacity();
    if (std::isfinite(c)) {
      cap += c;
    } else {
      unbounded = true;
    }
  }
  SR_REQUIRE(unbounded || cap > demand,
             "demand exceeds the total capacity of the bounded links");
}

double NetworkInstance::total_demand() const {
  double r = 0.0;
  for (const Commodity& c : commodities) r += c.demand;
  return r;
}

namespace {
bool reachable(const Graph& g, NodeId from, NodeId to) {
  std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  std::queue<NodeId> q;
  q.push(from);
  seen[static_cast<std::size_t>(from)] = 1;
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    if (v == to) return true;
    for (EdgeId e : g.out_edges(v)) {
      const NodeId w = g.edge(e).head;
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = 1;
        q.push(w);
      }
    }
  }
  return false;
}
}  // namespace

void NetworkInstance::validate() const {
  SR_REQUIRE(!commodities.empty(), "network instance needs >= 1 commodity");
  for (const Commodity& c : commodities) {
    SR_REQUIRE(c.source >= 0 && c.source < graph.num_nodes(),
               "commodity source out of range");
    SR_REQUIRE(c.sink >= 0 && c.sink < graph.num_nodes(),
               "commodity sink out of range");
    SR_REQUIRE(c.source != c.sink, "commodity needs source != sink");
    SR_REQUIRE(c.demand > 0.0 && std::isfinite(c.demand),
               "commodity needs demand > 0");
    SR_REQUIRE(reachable(graph, c.source, c.sink),
               "commodity sink unreachable from source");
  }
}

std::vector<OriginGroup> group_by_origin(const NetworkInstance& inst) {
  const std::size_t k = inst.commodities.size();
  std::vector<std::pair<NodeId, std::size_t>> keyed(k);
  for (std::size_t i = 0; i < k; ++i) {
    keyed[i] = {inst.commodities[i].source, i};
  }
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<OriginGroup> groups;
  for (const auto& [origin, idx] : keyed) {
    if (groups.empty() || groups.back().origin != origin) {
      groups.push_back(OriginGroup{origin, {}});
    }
    groups.back().commodities.push_back(idx);
  }
  return groups;
}

NetworkInstance to_network(const ParallelLinks& m) {
  m.validate();
  NetworkInstance inst;
  inst.graph = Graph(2);
  for (const auto& link : m.links) {
    inst.graph.add_edge(0, 1, link);
  }
  inst.commodities.push_back(Commodity{0, 1, m.demand});
  return inst;
}

ParallelLinks subsystem(const ParallelLinks& m, std::span<const int> link_ids,
                        double demand) {
  ParallelLinks out;
  out.demand = demand;
  out.links.reserve(link_ids.size());
  for (int i : link_ids) {
    SR_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < m.size(),
               "subsystem link id out of range");
    out.links.push_back(m.links[static_cast<std::size_t>(i)]);
  }
  return out;
}

}  // namespace stackroute
