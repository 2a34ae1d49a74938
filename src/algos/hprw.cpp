#include "algos/hprw.hpp"

#include <algorithm>
#include <cmath>

#include "algos/bfs_tree.hpp"
#include "algos/leader_election.hpp"
#include "algos/source_detection.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::algos {

using graph::NodeId;

namespace {

/// Counts, via one broadcast+convergecast pair over `tree`, the nodes whose
/// (depth, id) is lexicographically <= (t, c): every node at depth < t,
/// plus the nodes at depth t with id <= c.
std::uint64_t probe_count(const graph::Graph& g, const TreeState& tree,
                          std::uint32_t t, NodeId c,
                          congest::NetworkConfig cfg, congest::RunStats& acc) {
  const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
  // Nodes need the probe parameters: broadcast (t, c) packed in one value.
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(t) << id_bits) | static_cast<std::uint64_t>(c);
  acc += broadcast_from_root(g, tree, packed, 2 * id_bits, cfg).stats;

  std::vector<std::uint64_t> ind(g.n(), 0), zero(g.n(), 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    const std::uint32_t d = tree.depth[v];
    ind[v] = (d < t || (d == t && v <= c)) ? 1 : 0;
  }
  auto agg = aggregate_to_root(g, tree, AggregateOp::kSum, ind, zero,
                               id_bits, 1, cfg);
  acc += agg.stats;
  return agg.primary;
}

}  // namespace

PreparationOutcome hprw_preparation(const graph::Graph& g, std::uint32_t s,
                                    NodeId leader, const TreeState& tree_l,
                                    congest::NetworkConfig cfg) {
  require(g.n() >= 2, "hprw_preparation: need at least 2 nodes");
  require(s >= 1, "hprw_preparation: need s >= 1");
  require(leader < g.n(), "hprw_preparation: leader out of range");
  PreparationOutcome out;
  const std::uint32_t n = g.n();

  // Step 1: every vertex joins S with probability ln(n)/s, using its own
  // (deterministic, per-node) randomness, then a count convergecast checks
  // the with-high-probability cap.
  const double p = std::min(1.0, std::log(static_cast<double>(n)) /
                                     static_cast<double>(s));
  std::vector<bool> in_sample(n, false);
  Rng master(cfg.seed ^ 0x5a5a5a5aULL);
  for (NodeId v = 0; v < n; ++v) {
    Rng node_rng = master.child(v);
    in_sample[v] = node_rng.next_bool(p);
  }
  // An empty sample makes d(v, S) undefined; promote the leader, which
  // only helps the estimate (ecc(leader) <= D).
  if (std::none_of(in_sample.begin(), in_sample.end(),
                   [](bool b) { return b; })) {
    in_sample[leader] = true;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (in_sample[v]) out.sample.push_back(v);
  }

  const std::uint32_t id_bits = qc::bit_width_for(n) + 1;
  {
    std::vector<std::uint64_t> ind(n, 0), zero(n, 0);
    for (NodeId v = 0; v < n; ++v) ind[v] = in_sample[v] ? 1 : 0;
    auto cnt = aggregate_to_root(g, tree_l, AggregateOp::kSum, ind, zero,
                                 id_bits, 1, cfg);
    out.stats += cnt.stats;
    const double log_n = std::log(static_cast<double>(n));
    const double cap = static_cast<double>(n) * log_n * log_n /
                       static_cast<double>(s);
    if (static_cast<double>(cnt.primary) > std::max(cap, 1.0)) {
      out.aborted = true;
      return out;
    }
  }

  // Eccentricities of all of S ([LP13] source detection + batched
  // convergecast): the O(|S| + D) = O~(n/s + D) part.
  auto det = detect_sources(g, in_sample, cfg);
  out.stats += det.stats;
  auto eccs = batched_eccentricities(g, tree_l, det.distances, cfg);
  out.stats += eccs.stats;
  for (const auto& [src, e] : eccs.ecc) {
    out.max_ecc_sample = std::max(out.max_ecc_sample, e);
  }

  // Step 2: w = argmax_v d(v, p(v)) = argmax_v d(v, S).
  {
    std::vector<std::uint64_t> dmin(n, 0), ids(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      std::uint32_t best = graph::kUnreachable;
      for (const auto& [src, d] : det.distances[v]) best = std::min(best, d);
      dmin[v] = best;
      ids[v] = v;
    }
    auto agg = aggregate_to_root(g, tree_l, AggregateOp::kMax, dmin, ids,
                                 id_bits, id_bits, cfg);
    out.stats += agg.stats;
    out.w = static_cast<NodeId>(agg.secondary);
    out.stats += broadcast_from_root(g, tree_l, out.w, id_bits, cfg).stats;
  }

  // Step 3: BFS(w); the s closest nodes (by (depth, id)) join R. The
  // cutoff is located with two binary searches of count probes.
  auto wtree = compute_eccentricity(g, out.w, cfg);
  out.stats += wtree.stats;
  out.tree_w = std::move(wtree.tree);
  out.ecc_w = wtree.ecc;

  const std::uint32_t target = std::min<std::uint32_t>(s, n);
  std::uint32_t t_lo = 0, t_hi = out.ecc_w;
  while (t_lo < t_hi) {  // smallest t with |{v : depth <= t}| >= target
    const std::uint32_t mid = (t_lo + t_hi) / 2;
    const std::uint64_t cnt =
        probe_count(g, out.tree_w, mid, n - 1, cfg, out.stats);
    if (cnt >= target) {
      t_hi = mid;
    } else {
      t_lo = mid + 1;
    }
  }
  const std::uint32_t t_star = t_lo;
  NodeId c_lo = 0, c_hi = n - 1;
  while (c_lo < c_hi) {  // smallest c with count(t_star, c) >= target
    const NodeId mid = (c_lo + c_hi) / 2;
    const std::uint64_t cnt =
        probe_count(g, out.tree_w, t_star, mid, cfg, out.stats);
    if (cnt >= target) {
      c_hi = mid;
    } else {
      c_lo = mid + 1;
    }
  }
  const NodeId c_star = c_lo;
  // Final probe doubles as the "announce the cutoff" broadcast.
  const std::uint64_t r_size =
      probe_count(g, out.tree_w, t_star, c_star, cfg, out.stats);
  check_internal(r_size == target, "hprw_preparation: cutoff search failed");

  out.r_mask.assign(n, false);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t d = out.tree_w.depth[v];
    out.r_mask[v] = d < t_star || (d == t_star && v <= c_star);
  }
  out.r_size = static_cast<std::uint32_t>(r_size);
  return out;
}

ApproxOutcome classical_approx_diameter(const graph::Graph& g,
                                        std::uint32_t s,
                                        congest::NetworkConfig cfg) {
  metrics::ScopedTimer span("algos.classical_approx");
  ApproxOutcome out;
  if (s == 0) {
    s = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(g.n()))));
  }
  out.s_used = s;

  // Leader and an aggregation tree: the O(D) preliminaries, charged to
  // the preparation.
  const auto election = elect_leader(g, cfg);
  out.prep_stats += election.stats;
  const auto lead = compute_eccentricity(g, election.leader, cfg);
  out.prep_stats += lead.stats;

  auto prep = hprw_preparation(g, s, election.leader, lead.tree, cfg);
  out.prep_stats += prep.stats;
  out.aborted = prep.aborted;
  if (prep.aborted) {
    out.stats = out.prep_stats;
    span.add(out.stats.rounds, out.stats.messages, out.stats.bits);
    return out;
  }

  // Classical second phase: eccentricity of every node of R by source
  // detection from R — O(s + D) rounds.
  auto det = detect_sources(g, prep.r_mask, cfg);
  out.phase2_stats += det.stats;
  auto eccs = batched_eccentricities(g, prep.tree_w, det.distances, cfg);
  out.phase2_stats += eccs.stats;

  std::uint32_t max_ecc_r = 0;
  for (const auto& [src, e] : eccs.ecc) max_ecc_r = std::max(max_ecc_r, e);
  out.estimate = std::max({prep.ecc_w, prep.max_ecc_sample, max_ecc_r});

  out.stats = out.prep_stats;
  out.stats += out.phase2_stats;
  span.add(out.stats.rounds, out.stats.messages, out.stats.bits);
  return out;
}

}  // namespace qc::algos
