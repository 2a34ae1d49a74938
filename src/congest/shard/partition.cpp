#include "congest/shard/partition.hpp"

#include "util/error.hpp"

namespace qc::congest::shard {

ShardAssignment make_assignment(std::uint32_t n, std::uint32_t shards) {
  require(shards >= 1 && shards <= n,
          "shard: need 1 <= shards <= n (every worker must own a node)");
  ShardAssignment a;
  a.shards = shards;
  a.bounds.resize(shards + 1);
  const std::uint32_t base = n / shards;
  const std::uint32_t extra = n % shards;
  for (std::uint32_t s = 0; s < shards; ++s) {
    a.bounds[s + 1] = a.bounds[s] + base + (s < extra ? 1 : 0);
  }
  return a;
}

std::vector<std::pair<NodeId, NodeId>> boundary_arcs(const graph::Graph& g,
                                                     const ShardAssignment& a,
                                                     std::uint32_t s) {
  require(s < a.shards, "boundary_arcs: shard out of range");
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (NodeId u = a.begin(s); u < a.end(s); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (!a.owns(s, v)) arcs.emplace_back(u, v);
    }
  }
  return arcs;
}

}  // namespace qc::congest::shard
