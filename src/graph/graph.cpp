#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <sstream>

#include "graph/ecc_engine.hpp"
#include "util/error.hpp"

namespace qc::graph {

/// Heap backing of a Graph; Graph itself holds a shared_ptr to it plus raw
/// pointers into the vectors. The arrays never change after construction,
/// so anything computed from them alone is cached here once for every
/// copy.
struct Graph::OwnedCsr {
  std::vector<std::uint32_t> offsets;
  std::vector<NodeId> neighbors;
  /// is_connected(): -1 until first computed, then 0 or 1. Racing first
  /// callers compute the same answer, so a plain store is enough.
  mutable std::atomic<int> connected{-1};
  mutable std::once_flag engine_once;
  /// Built under engine_once over a non-owning Graph of this block.
  mutable std::unique_ptr<const EccEngine> engine;
};

Graph Graph::adopt(std::shared_ptr<OwnedCsr> block, std::uint32_t n) {
  Graph g;
  g.offsets_ = block->offsets.data();
  g.neighbors_ = block->neighbors.data();
  g.n_ = n;
  g.storage_ = std::move(block);
  return g;
}

Graph Graph::from_edges(std::uint32_t n, std::span<const Edge> edges) {
  return from_edges(n, std::vector<Edge>(edges.begin(), edges.end()));
}

Graph Graph::from_edges(std::uint32_t n, std::vector<Edge>&& edges) {
  for (auto& [u, v] : edges) {
    require(u < n && v < n, "Graph::from_edges: endpoint out of range");
    require(u != v, "Graph::from_edges: self-loops are not allowed");
    if (u > v) std::swap(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  auto block = std::make_shared<OwnedCsr>();
  OwnedCsr& csr = *block;
  csr.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    ++csr.offsets[u + 1];
    ++csr.offsets[v + 1];
  }
  std::partial_sum(csr.offsets.begin(), csr.offsets.end(),
                   csr.offsets.begin());
  csr.neighbors.resize(csr.offsets[n]);
  std::vector<std::uint32_t> cursor(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    csr.neighbors[cursor[u]++] = v;
    csr.neighbors[cursor[v]++] = u;
  }
  // Both passes append in (u,v)-sorted edge order, so each adjacency list
  // receives its smaller partners first and each side in increasing order:
  // the lists come out sorted without a per-vertex sort. Keep a cheap
  // linear cross-check so the invariant can never rot silently.
  for (std::uint32_t v = 0; v < n; ++v) {
    check_internal(std::is_sorted(csr.neighbors.begin() + csr.offsets[v],
                                  csr.neighbors.begin() + csr.offsets[v + 1]),
                   "Graph::from_edges: adjacency came out unsorted");
  }

  return adopt(std::move(block), n);
}

Graph Graph::from_csr(std::vector<std::uint32_t> offsets,
                      std::vector<NodeId> neighbors) {
  // Full CSR contract check, O(n + m log Δ) with no allocation: error
  // messages are literals so the loop never builds a string on success.
  require(!offsets.empty(), "Graph::from_csr: offsets must have n+1 entries");
  const auto n = static_cast<std::uint32_t>(offsets.size() - 1);
  const std::uint32_t* off = offsets.data();
  const NodeId* nbr = neighbors.data();
  require(off[0] == 0, "Graph CSR: offsets must start at 0");
  for (std::uint32_t v = 0; v < n; ++v) {
    require(off[v + 1] >= off[v], "Graph CSR: offsets must be nondecreasing");
  }
  require(off[n] == neighbors.size(),
          "Graph CSR: offsets[n] != neighbor count");
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t i = off[v]; i < off[v + 1]; ++i) {
      const NodeId w = nbr[i];
      require(w < n, "Graph CSR: neighbor id out of range");
      require(w != v, "Graph CSR: self-loops are not allowed");
      require(i == off[v] || nbr[i - 1] < w,
              "Graph CSR: adjacency must be sorted and duplicate-free");
    }
  }
  // Symmetry: every arc (v,w) needs its reverse (w,v). Binary search keeps
  // this O(m log Δ); checking only v<w halves the searches (the reverse
  // direction is implied by the arc-count equality checked above).
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t i = off[v]; i < off[v + 1]; ++i) {
      const NodeId w = nbr[i];
      if (v < w) {
        require(std::binary_search(nbr + off[w], nbr + off[w + 1], v),
                "Graph CSR: adjacency is not symmetric");
      }
    }
  }

  auto block = std::make_shared<OwnedCsr>();
  block->offsets = std::move(offsets);
  block->neighbors = std::move(neighbors);
  return adopt(std::move(block), n);
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  require(u < n() && v < n(), "Graph::has_edge: node out of range");
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(m());
  for (NodeId u = 0; u < n(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

bool Graph::is_connected() const {
  const int cached = storage_->connected.load(std::memory_order_relaxed);
  if (cached >= 0) return cached != 0;
  const bool connected = scan_connected();
  storage_->connected.store(connected ? 1 : 0, std::memory_order_relaxed);
  return connected;
}

std::shared_ptr<const EccEngine> Graph::ecc_engine() const {
  const OwnedCsr& block = *storage_;
  std::call_once(block.engine_once, [this, &block] {
    // The engine's copy of the graph points at this block without owning
    // it: an owning copy inside the block would keep the block alive
    // forever.
    Graph view = *this;
    view.storage_ = std::shared_ptr<const OwnedCsr>(
        std::shared_ptr<const OwnedCsr>(), &block);
    block.engine = std::make_unique<const EccEngine>(std::move(view));
  });
  // Aliasing handle: shares ownership of the block, points at its engine.
  return {storage_, block.engine.get()};
}

bool Graph::scan_connected() const {
  if (n() == 0) return true;
  std::vector<bool> seen(n(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::uint32_t count = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        stack.push_back(v);
      }
    }
  }
  return count == n();
}

std::string Graph::describe() const {
  std::ostringstream os;
  os << "Graph(n=" << n() << ", m=" << m() << ")";
  return os.str();
}

void GraphBuilder::reserve_nodes(std::uint32_t n) { n_ = std::max(n_, n); }

void GraphBuilder::reserve_edges(std::uint64_t m) {
  edges_.reserve(static_cast<std::size_t>(m));
}

NodeId GraphBuilder::add_node() { return n_++; }

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  require(u != v, "GraphBuilder::add_edge: self-loops are not allowed");
  reserve_nodes(std::max(u, v) + 1);
  edges_.emplace_back(u, v);
}

void GraphBuilder::add_clique(std::span<const NodeId> nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      add_edge(nodes[i], nodes[j]);
    }
  }
}

void GraphBuilder::add_star(NodeId center, std::span<const NodeId> leaves) {
  for (NodeId leaf : leaves) add_edge(center, leaf);
}

std::vector<NodeId> GraphBuilder::add_path_between(NodeId u, NodeId v,
                                                   std::uint32_t length) {
  std::vector<NodeId> inner;
  inner.reserve(length);
  NodeId prev = u;
  for (std::uint32_t i = 0; i < length; ++i) {
    const NodeId w = add_node();
    add_edge(prev, w);
    inner.push_back(w);
    prev = w;
  }
  add_edge(prev, v);
  return inner;
}

Graph GraphBuilder::build() const& { return Graph::from_edges(n_, edges_); }

Graph GraphBuilder::build() && {
  return Graph::from_edges(n_, std::move(edges_));
}

}  // namespace qc::graph
