// Property-based differential harness: every quantum front-end must agree
// with the centralized classical references (graph::diameter / radius /
// all_eccentricities) across random seeds and graph families. A mismatch is
// shrunk to the smallest failing n before being reported, so a red run
// prints a minimal (family, n, d, seed) reproduction tuple.
//
// The quantum confidence parameter is cranked to delta = 1e-6 so the
// whp-guarantees are ironclad at this case count: any disagreement is a
// real bug, not an unlucky sample.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "algos/leader_election.hpp"
#include "congest/shard/sharded_network.hpp"
#include "congest/trace.hpp"
#include "core/quantum_approx.hpp"
#include "core/quantum_decision.hpp"
#include "core/quantum_diameter.hpp"
#include "core/quantum_radius.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace qc {
namespace {

struct CaseId {
  std::string family;  // "diam" | "path" | "star" | "chorded-tree"
  std::uint32_t n = 0;
  std::uint32_t d = 0;        // target diameter ("diam") or unused
  std::uint64_t seed = 0;     // generator seed (random families)

  std::string describe() const {
    std::ostringstream os;
    os << "(" << family << ", n=" << n << ", d=" << d << ", seed=" << seed
       << ")";
    return os.str();
  }
};

graph::Graph build(const CaseId& c) {
  if (c.family == "path") return graph::make_path(c.n);
  if (c.family == "star") return graph::make_star(c.n);
  if (c.family == "chorded-tree") {
    // A random tree plus chords: connected ER keeps a spanning tree and
    // sprinkles extra edges, which is exactly that shape at low p.
    Rng rng(c.seed);
    return graph::make_connected_er(c.n, 0.12, rng);
  }
  Rng rng(c.seed);
  return graph::make_random_with_diameter(c.n, c.d, rng);
}

core::QuantumConfig harness_config(std::uint64_t qseed) {
  core::QuantumConfig cfg;
  cfg.seed = qseed;
  cfg.delta = 1e-6;
  cfg.oracle = core::OracleMode::kDirect;
  return cfg;
}

// Runs every front-end on `g` against the classical references. Returns ""
// on full agreement, otherwise a description of the first mismatch.
// `checks` is incremented once per algorithm comparison performed.
std::string check_case(const graph::Graph& g, std::uint64_t qseed,
                       int& checks) {
  const std::uint32_t d_ref = graph::diameter(g);
  const std::uint32_t r_ref = graph::radius(g);
  const auto eccs = graph::all_eccentricities(g);

  // Internal consistency of the references themselves.
  std::uint32_t ecc_max = 0, ecc_min = g.n() == 0 ? 0 : eccs[0];
  for (auto e : eccs) {
    ecc_max = std::max(ecc_max, e);
    ecc_min = std::min(ecc_min, e);
  }
  if (ecc_max != d_ref || ecc_min != r_ref) {
    return "classical references disagree with all_eccentricities";
  }

  const auto cfg = harness_config(qseed);

  {
    auto rep = core::quantum_diameter_exact(g, cfg);
    ++checks;
    if (rep.subroutine_failed) return "exact: " + rep.failure_reason;
    if (rep.diameter != d_ref) {
      return "quantum_diameter_exact = " + std::to_string(rep.diameter) +
             ", classical = " + std::to_string(d_ref);
    }
  }
  {
    auto rep = core::quantum_diameter_simple(g, cfg);
    ++checks;
    if (rep.subroutine_failed) return "simple: " + rep.failure_reason;
    if (rep.diameter != d_ref) {
      return "quantum_diameter_simple = " + std::to_string(rep.diameter) +
             ", classical = " + std::to_string(d_ref);
    }
  }
  {
    auto rep = core::quantum_radius(g, cfg);
    ++checks;
    if (rep.subroutine_failed) return "radius: " + rep.failure_reason;
    if (rep.radius != r_ref) {
      return "quantum_radius = " + std::to_string(rep.radius) +
             ", classical = " + std::to_string(r_ref);
    }
    if (g.n() >= 2 && eccs[rep.center] != r_ref) {
      return "quantum_radius center has ecc " +
             std::to_string(eccs[rep.center]) + ", radius is " +
             std::to_string(r_ref);
    }
  }
  {
    auto rep = core::quantum_diameter_decide(g, d_ref, cfg);
    ++checks;
    if (rep.subroutine_failed) return "decide(D): " + rep.failure_reason;
    if (rep.diameter_exceeds) {
      return "decide(D = " + std::to_string(d_ref) + ") claimed D > D";
    }
  }
  if (d_ref >= 1) {
    auto rep = core::quantum_diameter_decide(g, d_ref - 1, cfg);
    ++checks;
    if (rep.subroutine_failed) return "decide(D-1): " + rep.failure_reason;
    if (!rep.diameter_exceeds) {
      return "decide(D-1 = " + std::to_string(d_ref - 1) +
             ") missed D > D-1";
    }
  }
  {
    // The sampling preparation may abort (documented resample condition);
    // retry with fresh quantum seeds before judging the estimate.
    core::QuantumApproxReport rep;
    for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
      rep = core::quantum_diameter_approx(g, harness_config(qseed + attempt));
      if (!rep.aborted) break;
    }
    ++checks;
    if (!rep.aborted) {
      if (rep.subroutine_failed) return "approx: " + rep.failure_reason;
      if (rep.estimate > d_ref || 3 * rep.estimate < 2 * d_ref) {
        return "approx estimate " + std::to_string(rep.estimate) +
               " outside [2D/3, D] for D = " + std::to_string(d_ref);
      }
    }
  }
  return "";
}

// Shrinks a failing case by lowering n (same family / d / seed) and
// reports the smallest n that still fails together with its mismatch.
void report_shrunk(const CaseId& failing, std::uint64_t qseed,
                   const std::string& original_error) {
  CaseId best = failing;
  std::string best_error = original_error;
  const std::uint32_t floor_n =
      failing.family == "diam" ? std::max(2u, failing.d + 1) : 2u;
  for (std::uint32_t n = failing.n; n-- > floor_n;) {
    CaseId smaller = failing;
    smaller.n = n;
    int ignored = 0;
    const auto g = build(smaller);
    if (!g.is_connected()) continue;
    const std::string err = check_case(g, qseed, ignored);
    if (!err.empty()) {
      best = smaller;
      best_error = err;
    }
  }
  ADD_FAILURE() << "differential mismatch; minimal failing case "
                << best.describe() << ": " << best_error;
}

std::vector<CaseId> case_list() {
  std::vector<CaseId> cases;
  for (std::uint32_t n : {12u, 20u, 28u, 36u}) {
    for (std::uint32_t d : {3u, 5u, 8u}) {
      for (std::uint64_t seed : {1ULL, 2ULL}) {
        cases.push_back({"diam", n, d, seed});
      }
    }
  }
  for (std::uint32_t n : {2u, 3u, 5u, 9u, 17u, 33u}) {
    cases.push_back({"path", n, n - 1, 0});
  }
  for (std::uint32_t n : {3u, 5u, 10u, 25u}) {
    cases.push_back({"star", n, 2, 0});
  }
  for (std::uint32_t n : {12u, 20u, 28u}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      cases.push_back({"chorded-tree", n, 0, seed});
    }
  }
  return cases;
}

TEST(Differential, AllFrontEndsAgreeWithClassical) {
  int checks = 0;
  for (const auto& c : case_list()) {
    const auto g = build(c);
    ASSERT_TRUE(g.is_connected()) << c.describe();
    const std::uint64_t qseed = 7 + c.n + 31 * c.seed;
    const std::string err = check_case(g, qseed, checks);
    if (!err.empty()) report_shrunk(c, qseed, err);
  }
  // The acceptance bar for this harness: 200+ differential comparisons.
  EXPECT_GE(checks, 200);
}

// The branch fan-out must be invisible in results AND cost accounting:
// branch_threads is a wall-clock lever only.
TEST(Differential, BranchThreadsDoNotChangeReports) {
  std::vector<CaseId> subset = {
      {"diam", 24, 5, 1}, {"diam", 32, 8, 2}, {"chorded-tree", 20, 0, 1},
      {"path", 17, 16, 0},
  };
  for (const auto& c : subset) {
    const auto g = build(c);
    auto cfg = harness_config(11 + c.n);
    cfg.branch_threads = 1;
    const auto serial = core::quantum_diameter_exact(g, cfg);
    cfg.branch_threads = 2;
    const auto threaded = core::quantum_diameter_exact(g, cfg);
    EXPECT_EQ(serial.diameter, threaded.diameter) << c.describe();
    EXPECT_EQ(serial.total_rounds, threaded.total_rounds) << c.describe();
    EXPECT_EQ(serial.costs.grover_iterations, threaded.costs.grover_iterations)
        << c.describe();
    EXPECT_EQ(serial.costs.setup_invocations, threaded.costs.setup_invocations)
        << c.describe();
    EXPECT_EQ(serial.distinct_branch_evaluations,
              threaded.distinct_branch_evaluations)
        << c.describe();
    EXPECT_EQ(serial.reference_bfs_runs, threaded.reference_bfs_runs)
        << c.describe();

    cfg.branch_threads = 1;
    const auto radius_serial = core::quantum_radius(g, cfg);
    cfg.branch_threads = 2;
    const auto radius_threaded = core::quantum_radius(g, cfg);
    EXPECT_EQ(radius_serial.radius, radius_threaded.radius) << c.describe();
    EXPECT_EQ(radius_serial.center, radius_threaded.center) << c.describe();
    EXPECT_EQ(radius_serial.total_rounds, radius_threaded.total_rounds)
        << c.describe();
  }
}

// ---------------------------------------------------------------------------
// Engine parity: the multi-process shard backend vs the in-process engine.
//
// The same differential discipline as above, applied to execution engines
// instead of front-ends: for every graph family the sharded backend must
// reproduce the single-process run bit for bit — RunStats, algorithm
// outcomes AND the full delivery-event stream — at every worker count.
// Mismatches shrink to the smallest failing n like the quantum dimension.
// ---------------------------------------------------------------------------

std::string diff_stats(const congest::RunStats& a, const congest::RunStats& b,
                       const char* what) {
  std::ostringstream os;
  os << what << ": ";
  if (a.rounds != b.rounds) {
    os << "rounds " << a.rounds << " vs " << b.rounds;
  } else if (a.messages != b.messages) {
    os << "messages " << a.messages << " vs " << b.messages;
  } else if (a.bits != b.bits) {
    os << "bits " << a.bits << " vs " << b.bits;
  } else if (a.max_edge_bits != b.max_edge_bits) {
    os << "max_edge_bits " << a.max_edge_bits << " vs " << b.max_edge_bits;
  } else if (a.violations != b.violations) {
    os << "violations " << a.violations << " vs " << b.violations;
  } else if (a.quiesced != b.quiesced) {
    os << "quiesced " << a.quiesced << " vs " << b.quiesced;
  } else if (a.max_node_memory_bits != b.max_node_memory_bits) {
    os << "max_node_memory_bits " << a.max_node_memory_bits << " vs "
       << b.max_node_memory_bits;
  } else if (a.messages_dropped != b.messages_dropped ||
             a.messages_corrupted != b.messages_corrupted ||
             a.crashed_node_rounds != b.crashed_node_rounds) {
    os << "fault counters differ";
  } else {
    return "";
  }
  return os.str();
}

// Runs leader election and eccentricity (BFS + convergecast) on one graph,
// single-process vs sharded at worker count `w`, with delivery tracing
// armed on both. Returns "" on bit-identical agreement.
std::string check_shard_case(const graph::Graph& g, std::uint32_t w,
                             int& checks) {
  using congest::shard::ShardConfig;
  using congest::shard::ShardedNetwork;
  w = std::min(w, g.n());  // a shard needs at least one node

  congest::TraceRecorder seq_trace;
  congest::TraceRecorder shard_trace;

  congest::NetworkConfig seq_cfg = seq_trace.arm({});
  congest::Network seq_net(g, seq_cfg);
  ShardConfig scfg;
  scfg.shards = w;
  scfg.net = shard_trace.arm({});
  ShardedNetwork shard_net(g, scfg);

  {
    const auto a = algos::elect_leader_on(seq_net);
    const auto b = algos::elect_leader_on(shard_net);
    ++checks;
    if (a.leader != b.leader) return "leader differs";
    if (auto err = diff_stats(a.stats, b.stats, "elect"); !err.empty()) {
      return err;
    }
  }
  {
    const graph::NodeId root = g.n() / 3;
    const auto a = algos::compute_eccentricity_on(seq_net, root);
    const auto b = algos::compute_eccentricity_on(shard_net, root);
    ++checks;
    if (a.ecc != b.ecc) return "ecc differs";
    if (a.status != b.status) return "ecc status differs";
    if (a.tree.parent != b.tree.parent) return "bfs parents differ";
    if (a.tree.depth != b.tree.depth) return "bfs depths differ";
    if (a.tree.children != b.tree.children) return "bfs children differ";
    if (a.tree.height != b.tree.height) return "bfs height differs";
    if (auto err = diff_stats(a.stats, b.stats, "ecc"); !err.empty()) {
      return err;
    }
  }
  ++checks;
  if (seq_trace.events().size() != shard_trace.events().size()) {
    return "event stream length differs: " +
           std::to_string(seq_trace.events().size()) + " vs " +
           std::to_string(shard_trace.events().size());
  }
  for (std::size_t i = 0; i < seq_trace.events().size(); ++i) {
    if (!(seq_trace.events()[i] == shard_trace.events()[i])) {
      const auto& e = seq_trace.events()[i];
      const auto& f = shard_trace.events()[i];
      std::ostringstream os;
      os << "event " << i << " differs: seq (r" << e.round << " " << e.from
         << "->" << e.to << " " << e.bits << "b) vs shard (r" << f.round
         << " " << f.from << "->" << f.to << " " << f.bits << "b)";
      return os.str();
    }
  }
  return "";
}

void report_shrunk_shard(const CaseId& failing, std::uint32_t w,
                         const std::string& original_error) {
  CaseId best = failing;
  std::string best_error = original_error;
  const std::uint32_t floor_n =
      failing.family == "diam" ? std::max(2u, failing.d + 1) : 2u;
  for (std::uint32_t n = failing.n; n-- > floor_n;) {
    CaseId smaller = failing;
    smaller.n = n;
    const auto g = build(smaller);
    if (!g.is_connected()) continue;
    int ignored = 0;
    const std::string err = check_shard_case(g, w, ignored);
    if (!err.empty()) {
      best = smaller;
      best_error = err;
    }
  }
  ADD_FAILURE() << "shard-parity mismatch at W=" << w
                << "; minimal failing case " << best.describe() << ": "
                << best_error;
}

TEST(Differential, ShardedEngineBitIdenticalForEveryWorkerCount) {
  int checks = 0;
  // One representative n per family keeps the fork count sane; the shard
  // unit tests cover more graphs, this dimension covers more W.
  const std::vector<CaseId> cases = {
      {"diam", 28, 5, 1},        {"diam", 36, 8, 2}, {"path", 17, 16, 0},
      {"star", 25, 2, 0},        {"chorded-tree", 20, 0, 1},
      {"chorded-tree", 28, 0, 3},
  };
  for (const auto& c : cases) {
    const auto g = build(c);
    ASSERT_TRUE(g.is_connected()) << c.describe();
    std::vector<std::uint32_t> worker_counts = {1, 2, 3, 8};
    // One node per worker on the path: every arc crosses shards, so every
    // delivery is relayed by the coordinator and every event batch holds
    // one receiver.
    if (c.family == "path") worker_counts.push_back(g.n());
    for (const std::uint32_t w : worker_counts) {
      const std::string err = check_shard_case(g, w, checks);
      if (!err.empty()) report_shrunk_shard(c, w, err);
    }
  }
  // 6 cases x 4 worker counts + path at W = n, 3 comparisons each.
  EXPECT_GE(checks, 75);
}

}  // namespace
}  // namespace qc
