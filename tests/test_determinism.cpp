// Determinism guarantees: a fixed fault plan reproduces the delivered event
// stream run to run, and branch fan-out through BranchEvaluator leaves every
// result and round count invariant across thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "algos/evaluation.hpp"
#include "congest/network.hpp"
#include "congest/trace.hpp"
#include "core/branch_evaluator.hpp"
#include "core/detail.hpp"
#include "core/quantum_approx.hpp"
#include "core/quantum_decision.hpp"
#include "core/quantum_diameter.hpp"
#include "core/quantum_radius.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qc {
namespace {

using graph::Graph;
using graph::NodeId;

Graph random_graph(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  Rng rng(seed);
  return graph::make_random_with_diameter(n, d, rng);
}

// ---------------------------------------------------------------------------
// ThreadPool basics.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);

  // The pool is reusable for a second batch.
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 150);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

// ---------------------------------------------------------------------------
// BranchEvaluator: dedup, caching, exception propagation, invariance.
// ---------------------------------------------------------------------------

TEST(BranchEvaluator, PrefetchEvaluatesEachBranchOnce) {
  auto counter = std::make_shared<std::atomic<int>>(0);
  core::BranchEvaluator<std::int64_t> ev(
      [counter](std::size_t x) {
        counter->fetch_add(1);
        return static_cast<std::int64_t>(x * x);
      },
      2);
  ev.prefetch({3, 1, 3, 1, 4, 4, 4});  // duplicates collapse
  EXPECT_EQ(counter->load(), 3);
  EXPECT_EQ(ev.distinct_evaluations(), 3u);

  // Cache hits: no further evaluation work.
  EXPECT_EQ(ev(3), 9);
  EXPECT_EQ(ev(4), 16);
  ev.prefetch({1, 3, 4});
  EXPECT_EQ(counter->load(), 3);

  // A genuinely new branch evaluates inline.
  EXPECT_EQ(ev(5), 25);
  EXPECT_EQ(counter->load(), 4);
  EXPECT_EQ(ev.distinct_evaluations(), 4u);
}

TEST(BranchEvaluator, ResultsInvariantAcrossThreadCounts) {
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    auto counter = std::make_shared<std::atomic<int>>(0);
    core::BranchEvaluator<std::int64_t> ev(
        [counter](std::size_t x) {
          counter->fetch_add(1);
          return static_cast<std::int64_t>(7 * x + 1);
        },
        threads);
    ev.prefetch_all(64);
    EXPECT_EQ(counter->load(), 64) << threads << " threads";
    EXPECT_EQ(ev.distinct_evaluations(), 64u) << threads << " threads";
    for (std::size_t x = 0; x < 64; ++x) {
      EXPECT_EQ(ev(x), static_cast<std::int64_t>(7 * x + 1));
    }
    EXPECT_EQ(counter->load(), 64);  // all served from the cache
  }
}

TEST(BranchEvaluator, ExceptionsPropagateToCaller) {
  for (std::uint32_t threads : {1u, 4u}) {
    core::BranchEvaluator<bool> ev(
        [](std::size_t x) -> bool {
          if (x == 13) throw std::runtime_error("branch 13 failed");
          return x % 2 == 0;
        },
        threads);
    EXPECT_THROW(ev.prefetch_all(32), std::runtime_error)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Fault-plan reproducibility: a fixed plan yields the same delivered event
// stream run to run.
// ---------------------------------------------------------------------------

struct TracedRun {
  std::vector<congest::TraceEvent> events;
  congest::RunStats stats;
};

TracedRun traced_bfs(const Graph& g, congest::FaultPlan fault) {
  congest::TraceRecorder rec;
  congest::NetworkConfig cfg;
  cfg.fault = fault;
  TracedRun out;
  out.stats = algos::build_bfs_tree(g, 0, rec.arm(cfg)).stats;
  out.events = rec.events();
  return out;
}

TEST(FaultTrace, SamePlanReproducesRunToRun) {
  // Fault decisions are stateless hashes of (seed, round, from, to), so a
  // fixed plan must leave the delivered event stream — and every fault
  // counter — bit-identical from one run to the next.
  congest::FaultPlan plan;
  plan.drop_probability = 0.1;
  plan.corrupt_probability = 0.05;
  plan.seed = 77;
  for (std::uint64_t seed : {31ULL, 32ULL}) {
    auto g = random_graph(42 + 2 * static_cast<std::uint32_t>(seed), 7, seed);
    auto base = traced_bfs(g, plan);
    ASSERT_FALSE(base.events.empty());
    EXPECT_GT(base.stats.messages_dropped, 0u) << "seed " << seed;
    auto again = traced_bfs(g, plan);
    EXPECT_EQ(again.stats.messages_dropped, base.stats.messages_dropped);
    EXPECT_EQ(again.stats.messages_corrupted, base.stats.messages_corrupted);
    EXPECT_EQ(again.events, base.events) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Branch-thread invariance of the quantum front-ends: values, costs, and
// round accounting must not depend on the worker count.
// ---------------------------------------------------------------------------

TEST(BranchThreads, QuantumDiameterExactInvariant) {
  auto g = random_graph(36, 7, 61);
  auto run = [&](std::uint32_t threads) {
    core::QuantumConfig cfg;
    cfg.seed = 55;
    cfg.branch_threads = threads;
    return core::quantum_diameter_exact(g, cfg);
  };
  auto base = run(1);
  EXPECT_EQ(base.diameter, 7u);
  for (std::uint32_t threads : {2u, 8u}) {
    auto rep = run(threads);
    EXPECT_EQ(rep.diameter, base.diameter) << threads << " threads";
    EXPECT_EQ(rep.total_rounds, base.total_rounds) << threads << " threads";
    EXPECT_EQ(rep.costs.grover_iterations, base.costs.grover_iterations);
    EXPECT_EQ(rep.costs.setup_invocations, base.costs.setup_invocations);
    EXPECT_EQ(rep.costs.candidate_evaluations,
              base.costs.candidate_evaluations);
    EXPECT_EQ(rep.distinct_branch_evaluations,
              base.distinct_branch_evaluations)
        << threads << " threads";
  }
}

TEST(BranchThreads, ObserverForcesSerialButStaysCorrect) {
  auto g = random_graph(24, 5, 67);
  congest::TraceRecorder rec;
  core::QuantumConfig cfg;
  cfg.seed = 9;
  cfg.branch_threads = 8;
  cfg.net = rec.arm(cfg.net);
  auto rep = core::quantum_diameter_exact(g, cfg);
  EXPECT_EQ(rep.diameter, 5u);
  EXPECT_FALSE(rec.events().empty());
}

// ---------------------------------------------------------------------------
// The same invariance for the kDirect oracle, whose validation runs beside
// the quantum phase when there are several workers: every report field of
// every front-end is equal at any thread count.
// ---------------------------------------------------------------------------

auto costs_of(const qsim::SearchCosts& c) {
  return std::make_tuple(c.setup_invocations, c.grover_iterations,
                         c.candidate_evaluations);
}

/// Every field of each report kind, for one EXPECT_EQ.
auto fields(const core::QuantumDiameterReport& r) {
  return std::make_tuple(r.diameter, r.leader, r.ecc_leader, r.total_rounds,
                         r.init_rounds, r.t_setup, r.t_eval_forward,
                         costs_of(r.costs), r.distinct_branch_evaluations,
                         r.budget_exhausted, r.reference_bfs_runs,
                         r.per_node_memory_qubits, r.leader_memory_qubits,
                         r.subroutine_failed, r.failure_reason);
}
auto fields(const core::RadiusReport& r) {
  return std::make_tuple(r.radius, r.center, r.leader, r.total_rounds,
                         r.init_rounds, r.t_setup, r.t_eval_forward,
                         costs_of(r.costs), r.distinct_branch_evaluations,
                         r.budget_exhausted, r.reference_bfs_runs,
                         r.per_node_memory_qubits, r.leader_memory_qubits,
                         r.subroutine_failed, r.failure_reason);
}
auto fields(const core::DecisionReport& r) {
  return std::make_tuple(r.diameter_exceeds, r.witness, r.threshold,
                         r.total_rounds, r.init_rounds, r.t_setup,
                         r.t_eval_forward, costs_of(r.costs),
                         r.distinct_branch_evaluations, r.reference_bfs_runs,
                         r.per_node_memory_qubits, r.leader_memory_qubits,
                         r.subroutine_failed, r.failure_reason);
}
auto fields(const core::QuantumApproxReport& r) {
  return std::make_tuple(r.estimate, r.aborted, r.s_used, r.w, r.total_rounds,
                         r.prep_rounds, r.quantum_rounds, costs_of(r.costs),
                         r.distinct_branch_evaluations, r.reference_bfs_runs,
                         r.per_node_memory_qubits, r.leader_memory_qubits,
                         r.subroutine_failed, r.failure_reason);
}

core::QuantumConfig direct_config(std::uint32_t threads) {
  core::QuantumConfig cfg;
  cfg.oracle = core::OracleMode::kDirect;
  cfg.seed = 13;
  cfg.branch_threads = threads;
  return cfg;
}

/// Runs `run(threads)` at 1 worker and at each of `more` and expects
/// equal reports; returns the serial one.
template <typename Run>
auto expect_thread_invariant(const char* what, Run run,
                             std::initializer_list<std::uint32_t> more = {
                                 2u, 8u}) {
  const auto base = run(1u);
  for (std::uint32_t threads : more) {
    EXPECT_EQ(fields(run(threads)), fields(base))
        << what << " at " << threads << " threads";
  }
  return base;
}

TEST(BranchThreads, DirectOracleFrontEndsInvariant) {
  auto g = random_graph(72, 8, 71);
  const auto exact = expect_thread_invariant("exact", [&](std::uint32_t t) {
    return core::quantum_diameter_exact(g, direct_config(t));
  });
  EXPECT_EQ(exact.diameter, 8u);
  EXPECT_FALSE(exact.subroutine_failed);

  const auto radius = expect_thread_invariant("radius", [&](std::uint32_t t) {
    return core::quantum_radius(g, direct_config(t));
  });
  EXPECT_EQ(radius.radius, graph::radius(g));

  // A threshold with d <= threshold < 2d, so the decision cannot exit
  // early and runs its quantum search.
  const std::uint32_t threshold = exact.ecc_leader;
  ASSERT_LT(threshold, 2 * exact.ecc_leader);
  const auto decide = expect_thread_invariant("decide", [&](std::uint32_t t) {
    return core::quantum_diameter_decide(g, threshold, direct_config(t));
  });
  EXPECT_GT(decide.t_eval_forward, 0u);
  EXPECT_EQ(decide.diameter_exceeds, exact.diameter > threshold);

  const auto approx = expect_thread_invariant("approx", [&](std::uint32_t t) {
    return core::quantum_diameter_approx(g, direct_config(t));
  });
  EXPECT_GT(approx.quantum_rounds, 0u);
  EXPECT_FALSE(approx.subroutine_failed);
}

TEST(BranchThreads, DirectOracleInvariantOverTheBitParallelSweep) {
  // n >= 256 puts the reference sweep on the bit-parallel kernel, fanned
  // over `threads` workers on a task beside the calling thread.
  auto g = random_graph(512, 10, 5);
  const auto exact = expect_thread_invariant(
      "exact",
      [&](std::uint32_t t) {
        return core::quantum_diameter_exact(g, direct_config(t));
      },
      {2u, 4u});
  const auto radius = expect_thread_invariant(
      "radius",
      [&](std::uint32_t t) {
        return core::quantum_radius(g, direct_config(t));
      },
      {2u, 4u});
  EXPECT_EQ(exact.diameter, graph::diameter(g));
  EXPECT_EQ(radius.radius, graph::radius(g));
  EXPECT_EQ(exact.reference_bfs_runs, g.n());
  EXPECT_FALSE(exact.subroutine_failed);
}

TEST(BranchThreads, ObservedDirectRunIsInitThenOneValidation) {
  // Armed, a kDirect run delivers the initialization's messages and then
  // those of exactly one Figure 2 run, branch 0's, in that order.
  auto g = random_graph(40, 6, 73);
  congest::TraceRecorder init_rec;
  const auto init = core::detail::run_initialization(g, init_rec.arm({}));
  congest::TraceRecorder eval_rec;
  const auto eval = algos::evaluate_window_ecc(g, init.tree, 0, 2 * init.d,
                                               eval_rec.arm({}));
  std::vector<congest::TraceEvent> expected = init_rec.events();
  expected.insert(expected.end(), eval_rec.events().begin(),
                  eval_rec.events().end());
  ASSERT_EQ(eval_rec.events().size(), eval.stats.messages);

  congest::TraceRecorder rec;
  core::QuantumConfig cfg = direct_config(8);
  cfg.net = rec.arm(cfg.net);
  EXPECT_EQ(core::quantum_diameter_exact(g, cfg).diameter, 6u);
  EXPECT_EQ(rec.events().size(),
            init_rec.events().size() + eval.stats.messages);
  EXPECT_EQ(rec.events(), expected);
}


// ---------------------------------------------------------------------------
// Figure 2 pinned to golden hashes. Each hash covers the outcome of one
// evaluate_window_ecc run — max_ecc, the window, tau', every RunStats field
// and the delivered event stream (round, sender, receiver, every field) —
// or, when the run throws, the events up to the throw plus the error text.
// The values were captured with the engine that ran every node every round
// and scanned every slot; activity-proportional rounds (on-demand programs,
// crash-deferred wake-ups) must reproduce them exactly.
// ---------------------------------------------------------------------------

class Fnv64 {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(x >> (8 * i)));
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

enum class PinMode { kNone, kDrops, kCrashes, kTraced };

/// Crash windows for the pin: u0 is down in round 2 (its first probe-reply
/// round, so its wake-up must be deferred, not lost), plus short random
/// windows over the whole schedule that hit token holders, wave starts and
/// convergecast reports.
std::vector<congest::CrashWindow> pin_crashes(std::uint32_t n, NodeId u0,
                                              std::uint32_t total,
                                              std::uint64_t seed) {
  std::vector<congest::CrashWindow> out = {{u0, 2, 3}};
  Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    const auto node = static_cast<NodeId>(rng.next_below(n));
    const auto start = static_cast<std::uint32_t>(1 + rng.next_below(total));
    const auto len = static_cast<std::uint32_t>(1 + rng.next_below(4));
    out.push_back({node, start, start + len});
  }
  return out;
}

std::uint64_t fig2_outcome_hash(const Graph& g, const algos::TreeState& tree,
                                NodeId u0, PinMode mode) {
  const std::uint32_t steps = 2 * tree.height;
  const std::uint32_t total =
      3 * steps + (2 * steps + 2 * tree.height + 2) + tree.height + 1;
  Fnv64 h;
  congest::NetworkConfig cfg;
  cfg.observer = std::make_shared<congest::CallbackObserver>(
      [&h](NodeId from, NodeId to, const congest::Message& msg,
           std::uint32_t round) {
        h.add(round);
        h.add(from);
        h.add(to);
        h.add(msg.num_fields());
        for (std::size_t i = 0; i < msg.num_fields(); ++i) {
          h.add(msg.field(i));
          h.add(msg.field_bits(i));
        }
      });
  congest::TraceRecorder rec;
  switch (mode) {
    case PinMode::kNone:
      break;
    case PinMode::kDrops:
      cfg.fault.drop_probability = 0.01;
      cfg.fault.seed = 9;
      break;
    case PinMode::kCrashes:
      cfg.fault.crashes = pin_crashes(g.n(), u0, total, 1000 + u0);
      break;
    case PinMode::kTraced:
      cfg = rec.arm(std::move(cfg));
      break;
  }
  try {
    const auto out = algos::evaluate_window_ecc(g, tree, u0, steps, cfg);
    h.add(out.max_ecc);
    h.add(out.window.size());
    for (const NodeId v : out.window) h.add(v);
    for (const std::int64_t t : out.tau_prime) {
      h.add(static_cast<std::uint64_t>(t));
    }
    const congest::RunStats& s = out.stats;
    for (const std::uint64_t x :
         {std::uint64_t{s.rounds}, s.messages, s.bits,
          std::uint64_t{s.max_edge_bits}, s.violations,
          std::uint64_t{s.quiesced}, s.max_node_memory_bits,
          s.messages_dropped, s.messages_corrupted, s.crashed_node_rounds}) {
      h.add(x);
    }
  } catch (const Error& e) {
    h.add(std::string("error: ") + e.what());
  }
  for (const auto& e : rec.events()) {
    h.add(e.round);
    h.add(e.from);
    h.add(e.to);
    h.add(e.bits);
  }
  return h.value();
}

TEST(Figure2Pin, OutcomesMatchGoldenHashes) {
  struct Case {
    std::uint32_t n, d;
    std::uint64_t seed;
  };
  const std::vector<Case> cases = {{64, 6, 41}, {300, 9, 42}};
  const std::vector<std::uint64_t> golden = {
      // n=64: u0 in {0, 1, 32, 63} x modes {none, drops, crashes, traced}
      0xa5332d5e604c1cfeULL, 0x3c1693c830a6109aULL, 0x45a2d3aa8fb3b4d3ULL,
      0xf15617b7241fb72aULL, 0x155f4c0b407f7f22ULL, 0x77f2d37d49d123e3ULL,
      0xb561e04f8a644908ULL, 0xd3e3dcfd0c74ce78ULL, 0x2e5cbc7085080ef4ULL,
      0x5ca19e1cc21f7d8cULL, 0xb37324fbe6168b5aULL, 0x7c6d0c83bc1a7021ULL,
      0xeced0017a2def7f8ULL, 0x37d2d2df96fc13c8ULL, 0x69a497f912a43adbULL,
      0x45010ea2e42e8a06ULL,
      // n=300: u0 in {0, 1, 150, 299}
      0xf36bb43293cf2992ULL, 0x8e85042acf4a8a81ULL, 0x6eff0ed248b0ccd4ULL,
      0x72c47e3bbbed7a6eULL, 0xfdb08aad58027ec4ULL, 0xe4e09228bf773e54ULL,
      0xe726cb1a3cae12fcULL, 0x1b5b8ca96fd029a6ULL, 0xf55ea0582a02de73ULL,
      0xe1da3ced103234e6ULL, 0x867bcf9c201cf532ULL, 0x2af6ef8408d65949ULL,
      0x1ecbfdbbf50772e3ULL, 0xc062a6811923aa2bULL, 0xa385a9dc81e2a732ULL,
      0x54eced962c44a2b4ULL,
  };
  std::vector<std::uint64_t> got;
  for (const Case& c : cases) {
    const Graph g = random_graph(c.n, c.d, c.seed);
    const auto tree = algos::build_bfs_tree(g, 0).tree;
    for (const NodeId u0 : {NodeId{0}, NodeId{1}, c.n / 2, c.n - 1}) {
      for (const PinMode mode : {PinMode::kNone, PinMode::kDrops,
                                 PinMode::kCrashes, PinMode::kTraced}) {
        got.push_back(fig2_outcome_hash(g, tree, u0, mode));
      }
    }
  }
  std::string listing;
  for (const std::uint64_t x : got) listing += std::to_string(x) + "ULL,\n";
  ASSERT_EQ(got.size(), golden.size()) << listing;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]) << "case " << i << "\n" << listing;
  }
}

// ---------------------------------------------------------------------------
// BfsBroadcastPin: golden hashes of Figure 1's BFS (Proposition 1) followed
// by Setup's broadcast of a value down the resulting tree (Proposition 2),
// on the 10k dataset and a random graph, fault-free and under a drop and a
// corrupt plan. Each hash folds every delivered event (round, endpoints,
// fields and widths), both phases' RunStats, the tree and both statuses, so
// a change to how the programs queue their sends — not to what they send —
// must leave every value equal. The values were captured with the per-port
// send loops that stored one payload per arc.
// ---------------------------------------------------------------------------

enum class BfsPinPlan { kNone, kDrops, kCorrupt };

std::uint64_t bfs_broadcast_hash(const Graph& g, BfsPinPlan plan,
                                 std::uint64_t* events) {
  Fnv64 h;
  congest::NetworkConfig cfg;
  cfg.observer = std::make_shared<congest::CallbackObserver>(
      [&h, events](NodeId from, NodeId to, const congest::Message& msg,
                   std::uint32_t round) {
        ++*events;
        h.add(round);
        h.add(from);
        h.add(to);
        h.add(msg.num_fields());
        for (std::size_t i = 0; i < msg.num_fields(); ++i) {
          h.add(msg.field(i));
          h.add(msg.field_bits(i));
        }
      });
  switch (plan) {
    case BfsPinPlan::kNone:
      break;
    case BfsPinPlan::kDrops:
      cfg.fault.drop_probability = 0.01;
      cfg.fault.seed = 9;
      break;
    case BfsPinPlan::kCorrupt:
      cfg.fault.corrupt_probability = 0.01;
      cfg.fault.seed = 9;
      break;
  }
  const auto add_stats = [&h](const congest::RunStats& s) {
    for (const std::uint64_t x :
         {std::uint64_t{s.rounds}, s.messages, s.bits,
          std::uint64_t{s.max_edge_bits}, s.violations,
          std::uint64_t{s.quiesced}, s.max_node_memory_bits,
          s.messages_dropped, s.messages_corrupted, s.crashed_node_rounds}) {
      h.add(x);
    }
  };
  const auto bfs = algos::build_bfs_tree(g, 0, cfg);
  add_stats(bfs.stats);
  h.add(static_cast<std::uint64_t>(bfs.status));
  h.add(bfs.tree.height);
  for (NodeId v = 0; v < g.n(); ++v) {
    h.add(bfs.tree.parent[v]);
    h.add(bfs.tree.depth[v]);
  }
  const auto bc = algos::broadcast_from_root(g, bfs.tree, 0x2a5, 12, cfg);
  add_stats(bc.stats);
  h.add(static_cast<std::uint64_t>(bc.status));
  return h.value();
}

TEST(BfsBroadcastPin, OutcomesMatchGoldenHashes) {
  const std::vector<Graph> graphs = {
      graph::load_graph_file(std::string(QC_DATA_DIR) + "/synth-p2p-10k.qcg"),
      random_graph(300, 9, 42)};
  const std::vector<std::uint64_t> golden = {
      // synth-p2p-10k: plans {none, drops, corrupt}
      0x48a38b1b5d958ce6ULL, 0x20c6b7b50a5f5abbULL, 0xf4eb9f0a37c75cdbULL,
      // n=300
      0x5a74420eb787db55ULL, 0x2494c94f6cf0dd5fULL, 0x94474cb6c9644eb2ULL,
  };
  std::vector<std::uint64_t> got;
  std::uint64_t events = 0;
  for (const Graph& g : graphs) {
    for (const BfsPinPlan plan :
         {BfsPinPlan::kNone, BfsPinPlan::kDrops, BfsPinPlan::kCorrupt}) {
      got.push_back(bfs_broadcast_hash(g, plan, &events));
    }
  }
  std::string listing = "events " + std::to_string(events) + "\n";
  for (const std::uint64_t x : got) listing += std::to_string(x) + "ULL,\n";
  ASSERT_EQ(got.size(), golden.size()) << listing;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]) << "case " << i << "\n" << listing;
  }
}

}  // namespace
}  // namespace qc
