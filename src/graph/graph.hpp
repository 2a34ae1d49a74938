#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace qc::graph {

/// Node identifier; nodes of an n-node graph are 0..n-1.
using NodeId = std::uint32_t;

/// Sentinel for "no node" (e.g. the parent of a BFS root).
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// An undirected edge; canonical form has first <= second.
using Edge = std::pair<NodeId, NodeId>;

class EccEngine;

/// Immutable undirected simple graph in compressed-sparse-row form.
///
/// This is the topology substrate everything else builds on: the CONGEST
/// simulator instantiates one network node per vertex and one bidirectional
/// channel per edge, and the reference (centralized) algorithms used to
/// validate distributed executions run directly on it.
///
/// Neighbor lists are sorted by node id, which fixes a deterministic port
/// ordering for the simulator and a deterministic child ordering for DFS
/// traversals.
///
/// The CSR arrays live in one shared heap block; the graph reads them
/// through two raw pointers. Copying a Graph is O(1): copies share the
/// block, and with it the block's compute-once caches (connectivity and
/// the eccentricity engine), which are pure functions of the arrays.
class Graph {
 public:
  /// Builds a graph with `n` vertices from an edge list. Self-loops are
  /// rejected; duplicate edges are coalesced.
  static Graph from_edges(std::uint32_t n, std::span<const Edge> edges);

  /// Move overload: canonicalizes, sorts and dedups the moved buffer in
  /// place, so builder-heavy generators and the edge-list parser pay no
  /// extra copy of the edge list at build time.
  static Graph from_edges(std::uint32_t n, std::vector<Edge>&& edges);

  /// Adopts already-built CSR arrays. Validates the full CSR contract
  /// (offsets monotone and consistent, adjacency sorted, strictly
  /// increasing, in range, loop-free, symmetric) and throws
  /// InvalidArgumentError on any violation.
  static Graph from_csr(std::vector<std::uint32_t> offsets,
                        std::vector<NodeId> neighbors);

  /// Number of vertices.
  std::uint32_t n() const { return n_; }

  /// Number of (undirected) edges.
  std::uint64_t m() const { return offsets_ == nullptr ? 0 : offsets_[n_] / 2; }

  std::uint32_t degree(NodeId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Sorted neighbor list of v.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {neighbors_ + offsets_[v], neighbors_ + offsets_[v + 1]};
  }

  /// The raw CSR offset array (n()+1 entries); offsets()[n()] == 2*m().
  std::span<const std::uint32_t> csr_offsets() const {
    return {offsets_, static_cast<std::size_t>(n_) + 1};
  }

  /// The raw concatenated adjacency array (2*m() entries).
  std::span<const NodeId> csr_neighbors() const {
    return {neighbors_, offsets_ == nullptr ? 0 : offsets_[n_]};
  }

  /// O(log deg) membership test.
  bool has_edge(NodeId u, NodeId v) const;

  /// All edges in canonical (u < v) order.
  std::vector<Edge> edges() const;

  /// Computed once per CSR block; later calls, on any copy, read the
  /// cached answer.
  bool is_connected() const;

  /// The eccentricity engine shared by every copy of this graph: built on
  /// the first call, once per CSR block, so every front-end run on the
  /// graph reads one table, swept once. The handle keeps the block alive;
  /// the engine inside it does not (its graph() is a view that borrows the
  /// block, valid while a handle is held). An engine constructed directly
  /// keeps a private table. Throws like EccEngine's constructor on n = 0.
  std::shared_ptr<const EccEngine> ecc_engine() const;

  /// Human-readable one-line summary ("Graph(n=.., m=..)").
  std::string describe() const;

 private:
  /// The shared heap block: the CSR vectors plus the caches above.
  struct OwnedCsr;

  Graph() = default;

  /// Wraps a filled block: points the raw pointers at its arrays.
  static Graph adopt(std::shared_ptr<OwnedCsr> block, std::uint32_t n);

  /// The uncached connectivity search behind is_connected().
  bool scan_connected() const;

  /// Shared by every copy. The shared engine's own graph holds a
  /// non-owning pointer to the block it lives in, so the block never owns
  /// itself.
  std::shared_ptr<const OwnedCsr> storage_;
  const std::uint32_t* offsets_ = nullptr;
  const NodeId* neighbors_ = nullptr;
  std::uint32_t n_ = 0;
};

/// Incremental edge-list builder; the common way generators and gadget
/// constructions assemble a Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::uint32_t n = 0) : n_(n) {}

  /// Ensures at least `n` vertices exist.
  void reserve_nodes(std::uint32_t n);

  /// Reserves capacity for `m` add_edge calls, so bulk producers (the
  /// generators) append without reallocation.
  void reserve_edges(std::uint64_t m);

  /// Adds a fresh vertex and returns its id.
  NodeId add_node();

  /// Adds an undirected edge; duplicates are fine (coalesced at build).
  void add_edge(NodeId u, NodeId v);

  /// Connects every pair within `nodes` (clique).
  void add_clique(std::span<const NodeId> nodes);

  /// Connects `center` to each node in `leaves`.
  void add_star(NodeId center, std::span<const NodeId> leaves);

  /// Adds `length` new vertices forming a path from u to v (so the u-v
  /// distance through the new path is length+1). Returns the new vertices
  /// in order from u's side to v's side. length==0 simply adds edge {u,v}.
  std::vector<NodeId> add_path_between(NodeId u, NodeId v,
                                       std::uint32_t length);

  std::uint32_t num_nodes() const { return n_; }
  std::uint64_t num_edges() const { return edges_.size(); }

  /// Lvalue build keeps the builder reusable (copies the edge buffer);
  /// `std::move(b).build()` hands the buffer straight to Graph::from_edges
  /// with no copy — the form every generator uses for its final build.
  Graph build() const&;
  Graph build() &&;

 private:
  std::uint32_t n_;
  std::vector<Edge> edges_;
};

}  // namespace qc::graph
