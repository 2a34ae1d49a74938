// Infrastructure microbenchmarks (google-benchmark): CONGEST simulator
// round throughput, state-vector gates, amplitude-vector Grover iterates,
// quantum maximization, and the graph substrate.

#include <benchmark/benchmark.h>

#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "algos/evaluation.hpp"
#include "congest/network.hpp"
#include "core/branch_evaluator.hpp"
#include "core/quantum_diameter.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "qsim/amplitude_vector.hpp"
#include "qsim/search.hpp"
#include "qsim/statevector.hpp"
#include "util/rng.hpp"

namespace {

using namespace qc;

/// A chatty program: every node broadcasts a counter each round.
class ChatterProgram : public congest::NodeProgram {
 public:
  void on_start(congest::NodeContext& ctx) override {
    ctx.broadcast(congest::Message().push(0, 16));
  }
  void on_round(congest::NodeContext& ctx) override {
    count_ = (count_ + 1) & 0xffff;
    ctx.broadcast(congest::Message().push(count_, 16));
  }

 private:
  std::uint64_t count_ = 0;
};

void BM_NetworkRoundsSequential(benchmark::State& state) {
  Rng rng(1);
  auto g = graph::make_connected_er(static_cast<std::uint32_t>(state.range(0)),
                                    0.02, rng);
  congest::NetworkConfig cfg;
  cfg.bandwidth_bits = 64;
  congest::Network net(g, cfg);
  net.init_programs(
      [](graph::NodeId) { return std::make_unique<ChatterProgram>(); });
  for (auto _ : state) {
    net.run_rounds(10);
  }
  state.SetItemsProcessed(state.iterations() * 10 * g.m() * 2);
}
BENCHMARK(BM_NetworkRoundsSequential)->Arg(128)->Arg(512)->Arg(2048);

void BM_BfsTreeConstruction(benchmark::State& state) {
  Rng rng(2);
  auto g = graph::make_random_with_diameter(
      static_cast<std::uint32_t>(state.range(0)), 16, rng);
  for (auto _ : state) {
    auto out = algos::build_bfs_tree(g, 0);
    benchmark::DoNotOptimize(out.tree.height);
  }
}
BENCHMARK(BM_BfsTreeConstruction)->Arg(256)->Arg(1024);

void BM_EvaluationProcedure(benchmark::State& state) {
  Rng rng(3);
  auto g = graph::make_random_with_diameter(
      static_cast<std::uint32_t>(state.range(0)), 16, rng);
  auto tree = algos::build_bfs_tree(g, 0).tree;
  for (auto _ : state) {
    auto out = algos::evaluate_window_ecc(g, tree, 1, 2 * tree.height);
    benchmark::DoNotOptimize(out.max_ecc);
  }
}
BENCHMARK(BM_EvaluationProcedure)->Arg(128)->Arg(512)->Arg(1024);

void BM_GroverIterateAmplitude(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  auto psi0 = qsim::AmplitudeVector::uniform(dim);
  auto v = psi0;
  const auto mask = psi0.mark([](std::size_t i) { return i == 3; });
  for (auto _ : state) {
    v.grover_iterate(mask, psi0);
    benchmark::DoNotOptimize(v.amp(3));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_GroverIterateAmplitude)->Arg(1 << 10)->Arg(10000)->Arg(1 << 16);

// One Durr-Hoyer maximization (Corollary 1) as the front-ends run it: f is
// read from a fixed table, epsilon = 1/dim, delta = 0.01, and the same seed
// each time, so every iteration samples the same outcomes.
void BM_QuantumMaximize(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto setup = qsim::AmplitudeVector::uniform(dim);
  std::vector<std::int64_t> table(dim);
  for (std::size_t x = 0; x < dim; ++x) {
    table[x] = static_cast<std::int64_t>((x * 7919u + 13u) % 1009u);
  }
  const auto f = [&table](std::size_t x) { return table[x]; };
  std::uint64_t iterates = 0;
  for (auto _ : state) {
    Rng rng(1);
    const auto m = qsim::quantum_maximize(
        setup, f, 1.0 / static_cast<double>(dim), 0.01, rng);
    benchmark::DoNotOptimize(m.argmax);
    iterates += m.costs.grover_iterations;
  }
  state.counters["grover_iterations"] = benchmark::Counter(
      static_cast<double>(iterates), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_QuantumMaximize)->Arg(1 << 10)->Arg(10000)->Arg(1 << 16);

void BM_StateVectorGroverIterate(benchmark::State& state) {
  const auto nq = static_cast<std::uint32_t>(state.range(0));
  qsim::StateVector sv(nq);
  sv.h_all();
  auto pred = [](std::uint64_t i) { return i == 3; };
  for (auto _ : state) {
    sv.oracle(pred);
    sv.grover_diffusion();
    benchmark::DoNotOptimize(sv.amp(3));
  }
  state.SetItemsProcessed(state.iterations() * (1ULL << nq));
}
BENCHMARK(BM_StateVectorGroverIterate)->Arg(10)->Arg(16);

void BM_CentralizedBfs(benchmark::State& state) {
  Rng rng(4);
  auto g = graph::make_connected_er(
      static_cast<std::uint32_t>(state.range(0)), 0.01, rng);
  for (auto _ : state) {
    auto r = graph::bfs(g, 0);
    benchmark::DoNotOptimize(r.ecc);
  }
  state.SetItemsProcessed(state.iterations() * g.m());
}
BENCHMARK(BM_CentralizedBfs)->Arg(1024)->Arg(8192);

// Branch-evaluation throughput: a BranchEvaluator fanning independent
// Figure 2 window simulations across a worker pool. Arg = worker count;
// the branches_per_sec counter is the headline number (compare 1 vs N).
void BM_BranchEvalThroughput(benchmark::State& state) {
  Rng rng(6);
  auto g = graph::make_random_with_diameter(256, 8, rng);
  auto tree = algos::build_bfs_tree(g, 0).tree;
  const std::uint32_t steps = 2 * tree.height;
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::size_t> support(g.n());
  std::iota(support.begin(), support.end(), std::size_t{0});
  for (auto _ : state) {
    core::BranchEvaluator<std::int64_t> branches(
        [&](std::size_t u0) {
          return static_cast<std::int64_t>(
              algos::evaluate_window_ecc(
                  g, tree, static_cast<graph::NodeId>(u0), steps)
                  .max_ecc);
        },
        threads);
    branches.prefetch(support);
    benchmark::DoNotOptimize(branches.distinct_evaluations());
  }
  const auto total =
      static_cast<double>(state.iterations()) * static_cast<double>(g.n());
  state.counters["branches_per_sec"] =
      benchmark::Counter(total, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * g.n());
}
BENCHMARK(BM_BranchEvalThroughput)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// End-to-end: quantum_diameter_exact with the branch fan-out at 1 vs 8
// workers. Results are thread-count invariant; only wall clock moves.
void BM_QuantumDiameterExactBranchThreads(benchmark::State& state) {
  Rng rng(7);
  auto g = graph::make_random_with_diameter(256, 8, rng);
  core::QuantumConfig cfg;
  cfg.branch_threads = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto rep = core::quantum_diameter_exact(g, cfg);
    if (rep.diameter != 8) state.SkipWithError("wrong diameter");
    benchmark::DoNotOptimize(rep.total_rounds);
  }
  state.SetItemsProcessed(state.iterations() * g.n());
}
BENCHMARK(BM_QuantumDiameterExactBranchThreads)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DfsNumbering(benchmark::State& state) {
  Rng rng(5);
  auto g = graph::make_random_with_diameter(
      static_cast<std::uint32_t>(state.range(0)), 32, rng);
  auto tree = graph::bfs_tree(g, 0);
  for (auto _ : state) {
    auto num = graph::dfs_numbering(tree);
    benchmark::DoNotOptimize(num.walk.size());
  }
}
BENCHMARK(BM_DfsNumbering)->Arg(1024)->Arg(8192);

}  // namespace

// The repo-wide bench convention (see harness.hpp) smoke-runs every binary
// with `--quick`, which google-benchmark would reject as an unknown flag —
// map it to a minimal-time run and pass everything else through (e.g.
// --benchmark_format=json for machine-readable output).
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  bool quick = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string min_time = "--benchmark_min_time=0.01";
  if (quick) args.push_back(min_time.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
