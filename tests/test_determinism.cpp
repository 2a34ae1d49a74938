// Determinism guarantees: a fixed fault plan reproduces the delivered event
// stream run to run, and branch fan-out through BranchEvaluator leaves every
// result and round count invariant across thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "congest/network.hpp"
#include "congest/trace.hpp"
#include "core/branch_evaluator.hpp"
#include "core/quantum_diameter.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qc {
namespace {

using graph::Graph;

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

}  // namespace
}  // namespace qc
