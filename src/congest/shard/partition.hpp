#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace qc::congest::shard {

using graph::NodeId;

/// Which worker owns which node: shard s owns the contiguous id range
/// [begin(s), end(s)). The split is balanced — the first n % W shards own
/// ceil(n/W) ids, the rest floor(n/W) — so every shard is non-empty
/// whenever W <= n. One ascending range per worker keeps every worker's
/// delivery and event order ascending in receiver id, and the ranges are
/// disjoint and ascending in s, so concatenating the workers' event
/// batches in shard order is the sequential engine's order (see
/// docs/distributed.md).
struct ShardAssignment {
  std::uint32_t shards = 0;
  /// W + 1 ascending range bounds: bounds[0] = 0, bounds[W] = n.
  std::vector<NodeId> bounds;

  NodeId begin(std::uint32_t s) const { return bounds[s]; }
  NodeId end(std::uint32_t s) const { return bounds[s + 1]; }
  std::uint32_t owned_count(std::uint32_t s) const { return end(s) - begin(s); }
  bool owns(std::uint32_t s, NodeId v) const {
    return begin(s) <= v && v < end(s);
  }
  /// The shard whose range holds v (v < n).
  std::uint32_t owner(NodeId v) const {
    return static_cast<std::uint32_t>(
        std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin() -
        1);
  }
};

/// The balanced contiguous split of n nodes over `shards` workers.
/// Requires 1 <= shards <= n.
ShardAssignment make_assignment(std::uint32_t n, std::uint32_t shards);

/// Directed boundary arcs (u, v) with owner(u) == s and owner(v) != s, in
/// (u ascending, port ascending) order — exactly the order shard s
/// extracts outbound boundary messages in. Test/tooling helper; the
/// runtime precomputes its own slot tables.
std::vector<std::pair<NodeId, NodeId>> boundary_arcs(const graph::Graph& g,
                                                     const ShardAssignment& a,
                                                     std::uint32_t s);

}  // namespace qc::congest::shard
