#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "algos/evaluation.hpp"
#include "algos/hprw.hpp"
#include "core/detail.hpp"
#include "core/optimizer.hpp"
#include "core/quantum_approx.hpp"
#include "core/quantum_decision.hpp"
#include "core/quantum_diameter.hpp"
#include "core/quantum_radius.hpp"
#include "graph/algorithms.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/generators.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace qc::core {
namespace {

using graph::Graph;
using graph::NodeId;

Graph random_graph(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  Rng rng(seed);
  return graph::make_random_with_diameter(n, d, rng);
}

// ---------------------------------------------------------------------------
// The generic optimizer (Theorem 7).
// ---------------------------------------------------------------------------

TEST(Optimizer, FindsMaximumAndAccountsRounds) {
  OptimizationProblem p;
  p.domain_size = 64;
  p.evaluate = [](std::size_t x) {
    return static_cast<std::int64_t>((x * 7) % 41);
  };
  p.t_init = 100;
  p.t_setup = 10;
  p.t_eval_forward = 25;
  p.epsilon = 1.0 / 64;
  p.delta = 0.05;
  Rng rng(3);
  auto rep = distributed_quantum_optimize(p, rng);
  std::int64_t best = 0;
  for (std::size_t x = 0; x < 64; ++x) {
    best = std::max(best, p.evaluate(x));
  }
  EXPECT_EQ(rep.value, best);
  // The accounting identity must hold exactly.
  const std::uint64_t expect_rounds =
      p.t_init + rep.costs.setup_invocations * 10ULL +
      rep.costs.grover_iterations * (2ULL * 2 * 25 + 2ULL * 10) +
      rep.costs.candidate_evaluations * 25ULL;
  EXPECT_EQ(rep.total_rounds, expect_rounds);
  EXPECT_GT(rep.costs.grover_iterations, 0u);
  EXPECT_LE(rep.distinct_evaluations, 64u);
}

TEST(Optimizer, MemoizationBoundsDistinctEvaluations) {
  int raw_calls = 0;
  OptimizationProblem p;
  p.domain_size = 32;
  p.evaluate = [&raw_calls](std::size_t x) {
    ++raw_calls;
    return static_cast<std::int64_t>(x);
  };
  p.t_init = 0;
  p.t_setup = 1;
  p.t_eval_forward = 1;
  p.epsilon = 1.0 / 32;
  Rng rng(4);
  auto rep = distributed_quantum_optimize(p, rng);
  EXPECT_EQ(rep.value, 31);
  EXPECT_EQ(static_cast<std::uint64_t>(raw_calls), rep.distinct_evaluations);
  EXPECT_LE(raw_calls, 32);
}

TEST(Optimizer, SupportRestrictsDomain) {
  OptimizationProblem p;
  p.domain_size = 100;
  p.support = {10, 20, 30};
  p.evaluate = [](std::size_t x) { return static_cast<std::int64_t>(x); };
  p.t_setup = 1;
  p.t_eval_forward = 1;
  p.epsilon = 1.0 / 3;
  Rng rng(5);
  auto rep = distributed_quantum_optimize(p, rng);
  EXPECT_EQ(rep.argmax, 30u);
}

TEST(Optimizer, MemoryScalesWithLogDomainAndLogEps) {
  OptimizationProblem p;
  p.domain_size = 1 << 12;
  p.evaluate = [](std::size_t) { return std::int64_t{0}; };
  p.t_setup = 1;
  p.t_eval_forward = 1;
  p.epsilon = 1.0 / (1 << 12);
  Rng rng(6);
  auto rep = distributed_quantum_optimize(p, rng);
  // per-node: O(log |X|); leader: O(log|X| * log(1/eps)).
  EXPECT_LE(rep.per_node_memory_qubits, 5u * 12 + 20);
  EXPECT_LE(rep.leader_memory_qubits, rep.per_node_memory_qubits + 13u * 12);
  EXPECT_GT(rep.leader_memory_qubits, rep.per_node_memory_qubits);
}

// ---------------------------------------------------------------------------
// Theorem 1 and Section 3.1.
// ---------------------------------------------------------------------------

class QuantumExactSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(QuantumExactSweep, ComputesExactDiameter) {
  const auto [n, d] = GetParam();
  auto g = random_graph(n, d, 17 * n + d);
  QuantumConfig cfg;
  cfg.delta = 0.02;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    cfg.seed = seed;
    auto rep = quantum_diameter_exact(g, cfg);
    EXPECT_EQ(rep.diameter, d) << "n=" << n << " d=" << d << " seed=" << seed;
    EXPECT_EQ(rep.leader, n - 1);
    EXPECT_GE(rep.ecc_leader, (d + 1) / 2);
    EXPECT_LE(rep.ecc_leader, d);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, QuantumExactSweep,
    ::testing::Values(std::pair{12u, 3u}, std::pair{20u, 5u},
                      std::pair{32u, 8u}, std::pair{40u, 4u},
                      std::pair{48u, 12u}, std::pair{64u, 6u}));

TEST(QuantumExact, StandardFamilies) {
  QuantumConfig cfg;
  EXPECT_EQ(quantum_diameter_exact(graph::make_path(16), cfg).diameter, 15u);
  EXPECT_EQ(quantum_diameter_exact(graph::make_cycle(12), cfg).diameter, 6u);
  EXPECT_EQ(quantum_diameter_exact(graph::make_star(10), cfg).diameter, 2u);
  EXPECT_EQ(quantum_diameter_exact(graph::make_grid(4, 5), cfg).diameter, 7u);
  EXPECT_EQ(quantum_diameter_exact(graph::make_complete(8), cfg).diameter,
            1u);
}

TEST(QuantumExact, TrivialGraphs) {
  QuantumConfig cfg;
  EXPECT_EQ(quantum_diameter_exact(graph::make_path(1), cfg).diameter, 0u);
  EXPECT_EQ(quantum_diameter_exact(graph::make_path(2), cfg).diameter, 1u);
}

TEST(QuantumExact, DirectOracleMatchesSimulated) {
  auto g = random_graph(36, 9, 99);
  QuantumConfig sim_cfg, dir_cfg;
  sim_cfg.oracle = OracleMode::kSimulate;
  dir_cfg.oracle = OracleMode::kDirect;
  sim_cfg.seed = dir_cfg.seed = 5;
  auto a = quantum_diameter_exact(g, sim_cfg);
  auto b = quantum_diameter_exact(g, dir_cfg);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_EQ(a.total_rounds, b.total_rounds);  // same seed, same trajectory
  EXPECT_EQ(a.costs.grover_iterations, b.costs.grover_iterations);
}

TEST(QuantumExact, ReferencePathUsesAtMostNBfsRuns) {
  // The shared EccEngine answers every branch's f(u) from one eccentricity
  // table: at most one BFS per vertex for the whole run, versus Theta(n*d)
  // for the per-branch naive evaluation it replaced.
  auto g = random_graph(48, 8, 21);
  QuantumConfig cfg;
  cfg.oracle = OracleMode::kDirect;
  auto rep = quantum_diameter_exact(g, cfg);
  EXPECT_EQ(rep.diameter, 8u);
  EXPECT_GT(rep.reference_bfs_runs, 0u);
  EXPECT_LE(rep.reference_bfs_runs, g.n());

  cfg.oracle = OracleMode::kSimulate;  // cross-check path: same bound
  auto sim = quantum_diameter_exact(g, cfg);
  EXPECT_LE(sim.reference_bfs_runs, g.n());
}

/// Installs `reg` as the global metrics registry for one scope.
struct ArmedMetrics {
  explicit ArmedMetrics(metrics::MetricsRegistry& reg) {
    metrics::set_global(&reg);
  }
  ~ArmedMetrics() { metrics::set_global(nullptr); }
  ArmedMetrics(const ArmedMetrics&) = delete;
  ArmedMetrics& operator=(const ArmedMetrics&) = delete;
};

std::size_t count_spans(const metrics::MetricsRegistry& reg,
                        const std::string& name) {
  std::size_t k = 0;
  for (const auto& s : reg.spans()) k += s.name == name ? 1 : 0;
  return k;
}

TEST(QuantumExact, DirectOracleValidatesExactlyOnceUnderFanOut) {
  // Every kDirect front-end runs one Figure 2 simulation per op, on the
  // calling thread beside the sweep, whatever the branch worker count.
  auto g = random_graph(300, 12, 17);
  const std::uint32_t d = detail::run_initialization(g, {}).d;
  ASSERT_LT(d + 1, 2 * d);
  QuantumConfig cfg;
  cfg.oracle = OracleMode::kDirect;
  constexpr int kRuns = 4;
  for (std::uint32_t threads : {1u, 4u}) {
    cfg.branch_threads = threads;
    metrics::MetricsRegistry reg;
    {
      ArmedMetrics armed(reg);
      for (int run = 0; run < kRuns; ++run) {
        cfg.seed = static_cast<std::uint64_t>(run + 1);
        EXPECT_EQ(quantum_diameter_exact(g, cfg).diameter, 12u);
        EXPECT_EQ(quantum_diameter_simple(g, cfg).diameter, 12u);
        EXPECT_FALSE(quantum_radius(g, cfg).subroutine_failed);
        EXPECT_TRUE(quantum_diameter_decide(g, d + 1, cfg).diameter_exceeds);
        EXPECT_FALSE(quantum_diameter_approx(g, cfg).subroutine_failed);
      }
    }
    EXPECT_EQ(count_spans(reg, "core.branch_simulate"),
              static_cast<std::size_t>(5 * kRuns))
        << threads << " threads";
  }
}

TEST(QuantumExact, FailedDirectValidationIsNeverWavedThrough) {
  // Two ways the validation fails. Dropping every message makes the
  // Figure 2 run disagree with the reference, which needs the table to
  // tell, so the table is built. Corrupting every message makes the run
  // itself throw, so no table is built and no reference BFS runs are
  // reported, at any thread count. Either way the phase turns the failure
  // into the default failed report without running a Grover iterate.
  auto g = random_graph(40, 6, 3);
  const auto init = detail::run_initialization(g, {});
  struct Plan {
    bool drop;
    std::uint64_t bfs_runs;
  };
  metrics::MetricsRegistry reg;
  {
    ArmedMetrics armed(reg);
    for (const Plan plan : {Plan{true, g.n()}, Plan{false, 0}}) {
      QuantumConfig cfg;
      cfg.oracle = OracleMode::kDirect;
      (plan.drop ? cfg.net.fault.drop_probability
                 : cfg.net.fault.corrupt_probability) = 1.0;
      for (std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(plan.drop ? "drop, " : "corrupt, ") +
                     std::to_string(threads) + " threads");
        detail::WindowOracle oracle(g, init.tree, 2 * init.d,
                                    OracleMode::kDirect, cfg.net);
        EXPECT_THROW(oracle.read_reference(detail::EngineSweep(g, threads)),
                     qc::Error);
        EXPECT_EQ(oracle.reference_bfs_runs(), plan.bfs_runs);

        QuantumReport out;
        const auto phase = detail::run_quantum_phase(
            g, cfg, threads,
            {.algo = "test",
             .tree = &init.tree,
             .steps = 2 * init.d,
             .sweep = detail::EngineSweep(g, threads),
             .t_init = init.rounds,
             .t_setup = init.t_setup,
             .epsilon = 1.0 / g.n()},
            [](std::int64_t f) { return f; }, out);
        const auto& rep = phase.report;
        EXPECT_TRUE(rep.subroutine_failed);
        EXPECT_FALSE(rep.failure_reason.empty());
        EXPECT_EQ(rep.value, 0);
        EXPECT_EQ(rep.total_rounds, 0u);
        EXPECT_EQ(rep.costs.setup_invocations, 0u);
        EXPECT_EQ(rep.costs.grover_iterations, 0u);
        EXPECT_EQ(rep.costs.candidate_evaluations, 0u);
        EXPECT_EQ(rep.distinct_evaluations, 0u);
        EXPECT_TRUE(out.subroutine_failed);
        EXPECT_EQ(out.total_rounds, 0u);
        EXPECT_EQ(out.reference_bfs_runs, plan.bfs_runs);
        EXPECT_EQ(phase.t_eval_forward, oracle.t_eval_forward());
      }
    }
  }
  EXPECT_EQ(count_spans(reg, "core.branch_simulate"), 8u);
  EXPECT_EQ(reg.counter_value("qsim.grover_iterations", "maximize"), 0u);
  EXPECT_EQ(reg.counter_value("qsim.setup_invocations", "maximize"), 0u);
}

/// Message counts of every `core.branch_simulate` span in `reg`.
std::vector<std::uint64_t> simulate_messages(
    const metrics::MetricsRegistry& reg) {
  std::vector<std::uint64_t> out;
  for (const auto& s : reg.spans()) {
    if (s.name == "core.branch_simulate") out.push_back(s.messages);
  }
  return out;
}

TEST(QuantumExact, DirectOracleValidatesTheFirstBranch) {
  // The validated branch does not depend on thread timing: with four
  // workers, every run simulates branch 0, so its span carries exactly
  // branch 0's message count.
  auto g = random_graph(120, 9, 29);
  const auto init = detail::run_initialization(g, {});
  const std::uint64_t expected =
      algos::evaluate_window_ecc(g, init.tree, 0, 2 * init.d).stats.messages;
  QuantumConfig cfg;
  cfg.oracle = OracleMode::kDirect;
  cfg.branch_threads = 4;
  constexpr int kRuns = 20;
  metrics::MetricsRegistry reg;
  {
    ArmedMetrics armed(reg);
    for (int run = 0; run < kRuns; ++run) {
      cfg.seed = static_cast<std::uint64_t>(run + 1);
      EXPECT_EQ(quantum_diameter_exact(g, cfg).diameter, 9u);
    }
  }
  EXPECT_EQ(simulate_messages(reg),
            std::vector<std::uint64_t>(kRuns, expected));

  // With a mask (here the ball of BFS(leader) that stops short of node
  // 0), the smallest member is validated.
  std::vector<bool> mask(g.n(), false);
  for (NodeId v = 0; v < g.n(); ++v) {
    mask[v] = init.tree.depth[v] < init.tree.depth[0];
  }
  const auto first = static_cast<NodeId>(
      std::find(mask.begin(), mask.end(), true) - mask.begin());
  ASSERT_GT(std::count(mask.begin(), mask.end(), true), 1);
  ASSERT_NE(first, 0u);
  const std::uint32_t d_sub =
      graph::induced_subtree(init.tree.to_bfs_tree(), mask).height;
  detail::WindowOracle masked(g, init.tree, 2 * d_sub, OracleMode::kDirect,
                              {}, mask);
  EXPECT_EQ(masked.first_branch(), first);
  metrics::MetricsRegistry masked_reg;
  {
    ArmedMetrics armed(masked_reg);
    masked.read_reference(detail::EngineSweep(g, 4));
  }
  EXPECT_EQ(simulate_messages(masked_reg),
            std::vector<std::uint64_t>{
                algos::evaluate_window_ecc(g, init.tree, first, 2 * d_sub, {},
                                           &mask)
                    .stats.messages});
}

TEST(QuantumApprox, DirectOracleValidatesTheSmallestMemberOfR) {
  // Approx restricts the branches to R; the validated branch is R's
  // smallest member, whatever the thread timing.
  auto g = random_graph(64, 12, 23 * 64 + 12);
  QuantumConfig cfg;
  cfg.oracle = OracleMode::kDirect;
  cfg.branch_threads = 4;
  const auto first = quantum_diameter_approx(g, cfg);
  ASSERT_FALSE(first.aborted);
  const auto init = detail::run_initialization(g, {});
  const auto prep =
      algos::hprw_preparation(g, first.s_used, init.leader, init.tree);
  ASSERT_GT(prep.r_size, 1u);
  const auto r0 = static_cast<NodeId>(
      std::find(prep.r_mask.begin(), prep.r_mask.end(), true) -
      prep.r_mask.begin());
  const std::uint32_t d_sub =
      graph::induced_subtree(prep.tree_w.to_bfs_tree(), prep.r_mask).height;
  const std::uint64_t expected =
      algos::evaluate_window_ecc(g, prep.tree_w, r0, 2 * std::max(1u, d_sub),
                                 {}, &prep.r_mask)
          .stats.messages;
  constexpr int kRuns = 20;
  metrics::MetricsRegistry reg;
  {
    ArmedMetrics armed(reg);
    for (int run = 0; run < kRuns; ++run) {
      cfg.seed = static_cast<std::uint64_t>(run + 1);
      EXPECT_FALSE(quantum_diameter_approx(g, cfg).subroutine_failed);
    }
  }
  EXPECT_EQ(simulate_messages(reg),
            std::vector<std::uint64_t>(kRuns, expected));
}

TEST(QuantumApprox, PrepRoundsChargeThePreliminariesOnce) {
  // The leader election and BFS(leader) that pick s are the ones the
  // preparation aggregates over, charged once. With s = 1, R = {w} and no
  // quantum phase runs, so the preparation costs exactly what the
  // classical algorithm's does (the same preliminaries and Steps 1-3).
  auto g = random_graph(64, 12, 23 * 64 + 12);
  QuantumConfig cfg;
  cfg.oracle = OracleMode::kDirect;
  const auto single = quantum_diameter_approx(g, cfg, 1);
  ASSERT_FALSE(single.aborted);
  EXPECT_EQ(single.prep_rounds,
            algos::classical_approx_diameter(g, 1).prep_stats.rounds);
  EXPECT_EQ(single.total_rounds, single.prep_rounds);

  // A larger R adds only the window announcement down BFS(w).
  const auto rep = quantum_diameter_approx(g, cfg);
  ASSERT_FALSE(rep.aborted);
  const auto init = detail::run_initialization(g, {});
  const auto prep =
      algos::hprw_preparation(g, rep.s_used, init.leader, init.tree);
  ASSERT_GT(prep.r_size, 1u);
  const std::uint32_t d_sub =
      graph::induced_subtree(prep.tree_w.to_bfs_tree(), prep.r_mask).height;
  const std::uint32_t announce =
      algos::broadcast_from_root(g, prep.tree_w, d_sub,
                                 qc::bit_width_for(g.n()) + 1)
          .stats.rounds;
  EXPECT_EQ(rep.prep_rounds,
            algos::classical_approx_diameter(g, rep.s_used).prep_stats.rounds +
                announce);
  EXPECT_EQ(rep.total_rounds, rep.prep_rounds + rep.quantum_rounds);
}

TEST(QuantumSimple, AlsoExactButSlower) {
  auto g = random_graph(30, 10, 7);
  QuantumConfig cfg;
  cfg.seed = 11;
  auto simple = quantum_diameter_simple(g, cfg);
  auto final = quantum_diameter_exact(g, cfg);
  EXPECT_EQ(simple.diameter, 10u);
  EXPECT_EQ(final.diameter, 10u);
}

TEST(QuantumPhase, RoundAccountingIdentityAtEveryFrontEnd) {
  // Each front-end's total_rounds is the Theorem 7 identity computed from
  // its own report: one formula at every caller of the shared phase.
  auto g = random_graph(28, 6, 13);
  QuantumConfig cfg;
  cfg.seed = 3;
  const auto check = [](const auto& rep, const char* algo) {
    const std::uint64_t expect =
        rep.init_rounds +
        rep.costs.setup_invocations * static_cast<std::uint64_t>(rep.t_setup) +
        rep.costs.grover_iterations *
            (4ULL * rep.t_eval_forward + 2ULL * rep.t_setup) +
        rep.costs.candidate_evaluations *
            static_cast<std::uint64_t>(rep.t_eval_forward);
    EXPECT_EQ(rep.total_rounds, expect) << algo;
    EXPECT_GT(rep.init_rounds, 0u) << algo;
    EXPECT_GT(rep.t_setup, 0u) << algo;
    EXPECT_GT(rep.t_eval_forward, 0u) << algo;
    EXPECT_GT(rep.costs.setup_invocations, 0u) << algo;
  };
  check(quantum_diameter_exact(g, cfg), "exact");
  check(quantum_diameter_simple(g, cfg), "simple");
  check(quantum_radius(g, cfg), "radius");
  // A threshold in (d, 2d) leaves d <= D <= 2d undecided, so the decision
  // runs its quantum search instead of a cheap exit.
  const std::uint32_t d = detail::run_initialization(g, {}).d;
  ASSERT_LT(d + 1, 2 * d);
  check(quantum_diameter_decide(g, d + 1, cfg), "decide");
}

TEST(QuantumExact, EvalCostIsLinearInEccLeader) {
  // T_eval = O(d): the heart of Theorem 1's O(sqrt(nD)) bound.
  auto g = random_graph(60, 12, 21);
  QuantumConfig cfg;
  auto rep = quantum_diameter_exact(g, cfg);
  // 3*(2d) token + (6d+2) pipeline + (d+1) convergecast = 13d+3.
  EXPECT_LE(rep.t_eval_forward, 14 * rep.ecc_leader + 10);
}

TEST(QuantumExact, MemoryIsPolylog) {
  // Theorem 1: O(log^2 n) qubits per node.
  for (std::uint32_t n : {16u, 64u, 128u}) {
    auto g = random_graph(n, 4, n);
    auto rep = quantum_diameter_exact(g, QuantumConfig{});
    const double log_n = std::log2(static_cast<double>(n));
    EXPECT_LE(static_cast<double>(rep.per_node_memory_qubits),
              40 * log_n + 40);
    EXPECT_LE(static_cast<double>(rep.leader_memory_qubits),
              40 * log_n * log_n + 80);
  }
}

TEST(QuantumExact, FewerGroverIterationsThanSimple) {
  // The Section 3.2 windowing raises P_opt from 1/n to d/2n; for d >> 1
  // the final algorithm needs about sqrt(d/2) times fewer iterations.
  auto g = graph::make_path(96);
  QuantumConfig cfg;
  double simple_iters = 0, final_iters = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cfg.seed = seed;
    cfg.oracle = OracleMode::kDirect;
    simple_iters += static_cast<double>(
        quantum_diameter_simple(g, cfg).costs.grover_iterations);
    final_iters += static_cast<double>(
        quantum_diameter_exact(g, cfg).costs.grover_iterations);
  }
  EXPECT_LT(final_iters * 2, simple_iters);
}

// ---------------------------------------------------------------------------
// Theorem 4 (quantum 3/2 approximation).
// ---------------------------------------------------------------------------

class QuantumApproxSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(QuantumApproxSweep, EstimateWithinGuarantee) {
  const auto [n, d] = GetParam();
  auto g = random_graph(n, d, 23 * n + d);
  QuantumConfig cfg;
  cfg.seed = 9;
  auto rep = quantum_diameter_approx(g, cfg);
  ASSERT_FALSE(rep.aborted);
  const std::uint32_t diam = graph::diameter(g);
  EXPECT_LE(rep.estimate, diam) << "n=" << n << " d=" << d;
  EXPECT_GE(3 * rep.estimate, 2 * diam) << "n=" << n << " d=" << d;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, QuantumApproxSweep,
    ::testing::Values(std::pair{24u, 6u}, std::pair{40u, 8u},
                      std::pair{56u, 5u}, std::pair{64u, 12u},
                      std::pair{80u, 10u}));

TEST(QuantumApprox, ExplicitS) {
  auto g = random_graph(48, 8, 31);
  QuantumConfig cfg;
  auto rep = quantum_diameter_approx(g, cfg, 6);
  ASSERT_FALSE(rep.aborted);
  EXPECT_EQ(rep.s_used, 6u);
  const std::uint32_t diam = graph::diameter(g);
  EXPECT_LE(rep.estimate, diam);
  EXPECT_GE(3 * rep.estimate, 2 * diam);
}

TEST(QuantumApprox, SingletonR) {
  auto g = random_graph(30, 6, 37);
  QuantumConfig cfg;
  auto rep = quantum_diameter_approx(g, cfg, 1);
  ASSERT_FALSE(rep.aborted);
  const std::uint32_t diam = graph::diameter(g);
  EXPECT_LE(rep.estimate, diam);
  EXPECT_GE(3 * rep.estimate, 2 * diam);
}

TEST(QuantumApprox, PhaseBreakdownAddsUp) {
  auto g = random_graph(50, 10, 41);
  QuantumConfig cfg;
  auto rep = quantum_diameter_approx(g, cfg);
  ASSERT_FALSE(rep.aborted);
  EXPECT_EQ(rep.total_rounds, rep.prep_rounds + rep.quantum_rounds);
  EXPECT_GT(rep.prep_rounds, 0u);
}

TEST(QuantumApprox, TrivialGraphs) {
  EXPECT_EQ(quantum_diameter_approx(graph::make_path(1)).estimate, 0u);
  EXPECT_EQ(quantum_diameter_approx(graph::make_path(2)).estimate, 1u);
}


// ---------------------------------------------------------------------------
// One eccentricity table per graph: every front-end on a Graph, and on its
// copies, reads the engine cached in the graph's CSR block.
// ---------------------------------------------------------------------------

/// A graph equal to `g` with a CSR block, and so an engine, of its own.
Graph rebuilt(const Graph& g) { return Graph::from_edges(g.n(), g.edges()); }

auto common(const QuantumReport& r) {
  return std::make_tuple(r.total_rounds, r.costs.setup_invocations,
                         r.costs.grover_iterations,
                         r.costs.candidate_evaluations,
                         r.distinct_branch_evaluations, r.reference_bfs_runs,
                         r.per_node_memory_qubits, r.leader_memory_qubits,
                         r.subroutine_failed, r.failure_reason);
}
auto fields(const QuantumDiameterReport& r) {
  return std::make_tuple(common(r), r.diameter, r.leader, r.ecc_leader,
                         r.init_rounds, r.t_setup, r.t_eval_forward,
                         r.budget_exhausted);
}
auto fields(const RadiusReport& r) {
  return std::make_tuple(common(r), r.radius, r.center, r.leader,
                         r.init_rounds, r.t_setup, r.t_eval_forward,
                         r.budget_exhausted);
}
auto fields(const DecisionReport& r) {
  return std::make_tuple(common(r), r.diameter_exceeds, r.witness,
                         r.threshold, r.init_rounds, r.t_setup);
}
auto fields(const QuantumApproxReport& r) {
  return std::make_tuple(common(r), r.estimate, r.aborted, r.s_used, r.w,
                         r.prep_rounds, r.quantum_rounds);
}

QuantumConfig direct_config(std::uint32_t threads) {
  QuantumConfig cfg;
  cfg.oracle = OracleMode::kDirect;
  cfg.seed = 3;
  cfg.branch_threads = threads;
  return cfg;
}

TEST(SharedEccTable, FrontEndsOnOneGraphSweepOnce) {
  // n = 300 is past the parallel cutoff, so with 4 workers the first
  // front-end sweeps on a background task and the others find the table.
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const Graph g = random_graph(300, 9, 42);
    const QuantumConfig cfg = direct_config(threads);
    const std::uint32_t threshold = 7;
    metrics::MetricsRegistry reg;
    QuantumDiameterReport diameter;
    RadiusReport radius;
    DecisionReport decide;
    QuantumApproxReport approx;
    {
      ArmedMetrics armed(reg);
      diameter = quantum_diameter_exact(g, cfg);
      radius = quantum_radius(g, cfg);
      decide = quantum_diameter_decide(g, threshold, cfg);
      approx = quantum_diameter_approx(Graph(g), cfg);  // a copy shares it
    }
    EXPECT_EQ(count_spans(reg, "graph.ecc_sweep"), 1u);
    EXPECT_EQ(g.ecc_engine()->bfs_runs(), g.n());
    EXPECT_EQ(diameter.diameter, 9u);
    EXPECT_FALSE(radius.subroutine_failed);
    EXPECT_TRUE(decide.diameter_exceeds);

    // Each report equals the same call on a graph that sweeps its own
    // table.
    EXPECT_EQ(fields(diameter), fields(quantum_diameter_exact(rebuilt(g), cfg)));
    EXPECT_EQ(fields(radius), fields(quantum_radius(rebuilt(g), cfg)));
    EXPECT_EQ(fields(decide),
              fields(quantum_diameter_decide(rebuilt(g), threshold, cfg)));
    EXPECT_EQ(fields(approx), fields(quantum_diameter_approx(rebuilt(g), cfg)));
  }
}

TEST(SharedEccTable, ConcurrentFrontEndsGetTheSequentialReports) {
  const Graph g = random_graph(300, 9, 43);
  const QuantumConfig cfg = direct_config(2);
  const auto want_diameter = fields(quantum_diameter_exact(rebuilt(g), cfg));
  const auto want_radius = fields(quantum_radius(rebuilt(g), cfg));
  QuantumDiameterReport diameter;
  RadiusReport radius;
  std::thread a([&] { diameter = quantum_diameter_exact(g, cfg); });
  std::thread b([&] { radius = quantum_radius(g, cfg); });
  a.join();
  b.join();
  EXPECT_EQ(fields(diameter), want_diameter);
  EXPECT_EQ(fields(radius), want_radius);
  EXPECT_EQ(g.ecc_engine()->bfs_runs(), g.n());
}

TEST(SharedEccTable, DirectEngineAndLibraryCallsKeepPrivateTables) {
  const Graph g = random_graph(300, 9, 44);
  ASSERT_EQ(quantum_diameter_exact(g, direct_config(1)).diameter, 9u);
  const auto shared = g.ecc_engine();
  ASSERT_TRUE(shared->ready());

  const graph::EccEngine own(g);
  EXPECT_NE(&own, shared.get());
  EXPECT_FALSE(own.ready());
  EXPECT_EQ(own.all(), shared->all());
  EXPECT_EQ(own.bfs_runs(), g.n());
  EXPECT_EQ(graph::diameter(g), 9u);
  EXPECT_EQ(shared->bfs_runs(), g.n());  // nothing above swept it again

  // The handle keeps the block, and with it the table, alive.
  std::shared_ptr<const graph::EccEngine> orphan;
  {
    const Graph copy = rebuilt(g);
    orphan = copy.ecc_engine();
    EXPECT_EQ(orphan, copy.ecc_engine());
  }
  EXPECT_EQ(orphan->diameter(), 9u);
  EXPECT_EQ(orphan->graph().n(), g.n());
}

}  // namespace
}  // namespace qc::core
