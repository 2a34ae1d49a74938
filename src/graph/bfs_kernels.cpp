#include "graph/bfs_kernels.hpp"

#include <bit>

#include "util/error.hpp"

namespace qc::graph {

namespace {

// Beamer-style direction switch: pull when the frontier's out-degree sum
// crosses this fraction of all arcs, or when a quarter of the vertices are
// on the frontier. Pull scans every not-yet-saturated vertex but exits a
// neighbor scan as soon as the needed bits are found, so it wins exactly
// in the dense mid-BFS levels of low-diameter graphs.
constexpr std::uint64_t kPullAlpha = 14;
constexpr std::uint64_t kPullNodeFrac = 4;

bool none(const SourceMask& m) {
  std::uint64_t any = 0;
  for (const std::uint64_t w : m) any |= w;
  return any == 0;
}

// a & ~b, word by word.
SourceMask and_not(const SourceMask& a, const SourceMask& b) {
  SourceMask out;
  for (std::size_t w = 0; w < out.size(); ++w) out[w] = a[w] & ~b[w];
  return out;
}

SourceMask and_of(const SourceMask& a, const SourceMask& b) {
  SourceMask out;
  for (std::size_t w = 0; w < out.size(); ++w) out[w] = a[w] & b[w];
  return out;
}

void or_into(SourceMask& a, const SourceMask& b) {
  for (std::size_t w = 0; w < a.size(); ++w) a[w] |= b[w];
}

// Calls f(i) for every set bit i of m, in increasing order.
template <typename F>
void for_each_bit(const SourceMask& m, F&& f) {
  for (std::size_t w = 0; w < m.size(); ++w) {
    for (std::uint64_t b = m[w]; b != 0; b &= b - 1) {
      f(64 * w + static_cast<std::size_t>(std::countr_zero(b)));
    }
  }
}

}  // namespace

std::uint32_t flat_bfs_distances(const Graph& g, NodeId root,
                                 BfsScratch& scratch) {
  require(root < g.n(), "flat_bfs_distances: root out of range");
  scratch.dist.assign(g.n(), kUnreachable);
  scratch.frontier.clear();
  scratch.next.clear();
  scratch.frontier.reserve(g.n());
  scratch.next.reserve(g.n());
  scratch.dist[root] = 0;
  scratch.frontier.push_back(root);
  std::uint32_t level = 0;
  std::uint32_t ecc = 0;
  std::uint32_t reached = 1;
  while (!scratch.frontier.empty()) {
    ++level;
    for (const NodeId u : scratch.frontier) {
      for (const NodeId v : g.neighbors(u)) {
        if (scratch.dist[v] == kUnreachable) {
          scratch.dist[v] = level;
          scratch.next.push_back(v);
        }
      }
    }
    if (!scratch.next.empty()) {
      ecc = level;
      reached += static_cast<std::uint32_t>(scratch.next.size());
    }
    scratch.frontier.swap(scratch.next);
    scratch.next.clear();
  }
  scratch.finite_ecc = ecc;
  scratch.reached = reached;
  return reached == g.n() ? ecc : kUnreachable;
}

MultiBfsStats multi_source_eccentricities(const Graph& g,
                                          std::span<const NodeId> sources,
                                          std::uint32_t* ecc_out,
                                          MultiBfsScratch& scratch,
                                          MultiBfsDirection direction) {
  const std::uint32_t n = g.n();
  const std::size_t k = sources.size();
  require(n > 0, "multi_source_eccentricities: empty graph");
  require(k >= 1 && k <= kMaxBatchSources,
          "multi_source_eccentricities: need 1..128 sources per batch");
  const std::uint64_t arcs = g.csr_neighbors().size();

  auto& visited = scratch.visited;
  auto& next = scratch.next;
  visited.assign(n, SourceMask{});
  next.assign(n, SourceMask{});
  scratch.active.clear();
  scratch.next_active.clear();

  // Seed. Invariant from here on: next[v] is zero outside a level, and
  // `active` lists the vertices some source first reached at the last
  // level.
  SourceMask full{};  // one bit per source
  std::uint64_t active_deg = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId v = sources[i];
    require(v < n, "multi_source_eccentricities: source out of range");
    if (none(visited[v])) {
      scratch.active.push_back(v);
      active_deg += g.degree(v);
    }
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    full[i / 64] |= bit;
    visited[v][i / 64] |= bit;
    ecc_out[i] = 0;
  }

  MultiBfsStats stats;
  std::uint32_t level = 0;
  while (!scratch.active.empty()) {
    ++level;
    ++stats.levels;
    const bool pull =
        direction == MultiBfsDirection::kOptimized &&
        (active_deg * kPullAlpha >= arcs ||
         scratch.active.size() * kPullNodeFrac >= n);
    if (pull) {
      ++stats.pull_levels;
      // Bottom-up: every vertex still missing bits gathers the word-OR of
      // its neighbors' visited masks, stopping as soon as everything it
      // needs has been found. A source in a neighbor's mask but not in
      // visited[v] reaches v at exactly this level.
      for (NodeId v = 0; v < n; ++v) {
        const SourceMask need = and_not(full, visited[v]);
        if (none(need)) continue;
        SourceMask gathered{};
        for (const NodeId u : g.neighbors(v)) {
          or_into(gathered, visited[u]);
          if (none(and_not(need, gathered))) break;
        }
        const SourceMask add = and_of(need, gathered);
        if (!none(add)) {
          next[v] = add;
          scratch.next_active.push_back(v);
        }
      }
    } else {
      ++stats.push_levels;
      // Top-down: scatter each active vertex's visited mask to its
      // neighbors; the filter keeps only the bits new to the neighbor.
      for (const NodeId v : scratch.active) {
        const SourceMask f = visited[v];
        for (const NodeId u : g.neighbors(v)) {
          const SourceMask add = and_not(f, visited[u]);
          if (!none(add)) {
            if (none(next[u])) scratch.next_active.push_back(u);
            or_into(next[u], add);
          }
        }
      }
    }

    // Retire the level: commit the new reaches, record which sources
    // advanced (their eccentricity is at least this level), and zero
    // `next` for the next level.
    SourceMask level_mask{};
    active_deg = 0;
    for (const NodeId v : scratch.next_active) {
      or_into(visited[v], next[v]);
      or_into(level_mask, next[v]);
      next[v] = SourceMask{};
      active_deg += g.degree(v);
    }
    for_each_bit(level_mask, [&](std::size_t i) { ecc_out[i] = level; });
    scratch.active.swap(scratch.next_active);
    scratch.next_active.clear();
  }

  // A source's component covers the graph iff its bit survives the AND of
  // every vertex's visited mask; everything else gets kUnreachable, same
  // as flat_bfs_distances.
  SourceMask covered = full;
  for (NodeId v = 0; v < n; ++v) covered = and_of(covered, visited[v]);
  for_each_bit(and_not(full, covered),
               [&](std::size_t i) { ecc_out[i] = kUnreachable; });
  return stats;
}

}  // namespace qc::graph
