// Figure 2 / Proposition 4: the Evaluation procedure computes
// f(u0) = max_{v in S(u0)} ecc(v) in O(d) rounds with O(log n) memory and
// no congestion (Lemmas 2-4 are asserted inside the implementation; this
// bench sweeps the parameters and reports the measured budgets).

#include "algos/bfs_tree.hpp"
#include "algos/evaluation.hpp"
#include "bench/harness.hpp"
#include "graph/algorithms.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

using namespace qc;
using namespace qc::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  banner("Figure 2 / the Evaluation procedure (Proposition 4)",
         "rounds linear in d = ecc(leader); zero bandwidth violations; "
         "result equals the centralized reference on every run");

  // ---- Rounds vs d at fixed n.
  {
    const std::uint32_t n = opt.quick ? 128 : 256;
    Table t({"n", "d=ecc(root)", "steps=2d", "|S(u0)| (median)", "rounds",
             "rounds/d", "max msg bits", "bw"});
    std::vector<double> xs, ys;
    for (std::uint32_t d : {4u, 8u, 16u, 32u, 64u}) {
      auto g = workload(n, d, opt.seed + d);
      auto tree = algos::build_bfs_tree(g, 0).tree;
      auto num = graph::dfs_numbering(tree.to_bfs_tree());
      const std::uint32_t steps = 2 * tree.height;
      double rounds = 0, window = 0, max_bits = 0;
      int samples = 0;
      for (graph::NodeId u0 = 0; u0 < g.n();
           u0 += std::max(1u, g.n() / 8)) {
        auto eval =
            algos::evaluate_window_ecc(g, tree, u0, steps);
        check_internal(eval.stats.violations == 0, "congestion in Figure 2");
        check_internal(
            eval.max_ecc == graph::max_ecc_in_segment(g, num, u0, steps),
            "Figure 2 result mismatch");
        rounds = static_cast<double>(eval.stats.rounds);  // u0-independent
        window += static_cast<double>(eval.window.size());
        max_bits = std::max(max_bits,
                            static_cast<double>(eval.stats.max_edge_bits));
        ++samples;
      }
      window /= samples;
      xs.push_back(tree.height);
      ys.push_back(rounds);
      t.add_row({fmt(n), fmt(tree.height), fmt(steps), fmt(window, 1),
                 fmt(rounds, 0),
                 fmt(rounds / std::max(1u, tree.height), 1), fmt(max_bits, 0),
                 fmt(congest_bandwidth_bits(n))});
    }
    t.print(std::cout);
    print_fit("  rounds ~ d^e", xs, ys, 1.0);
    std::cout << "  (the Figure 2 budget is 3*(2d) + (6d+2) + (d+1) ~ 13d)\n\n";
  }

  // ---- Window coverage (Lemma 1): the fraction of starting points whose
  // window contains a fixed target is at least d/2n.
  {
    const std::uint32_t n = opt.quick ? 128 : 200;
    Table t({"d", "min coverage over v", "Lemma 1 floor d/2n"});
    for (std::uint32_t d : {8u, 16u, 32u}) {
      auto g = workload(n, d, opt.seed + 91 * d);
      auto tree = graph::bfs_tree(g, 0);
      auto num = graph::dfs_numbering(tree);
      const std::uint32_t steps = 2 * tree.height;
      double min_cov = 1.0;
      for (graph::NodeId v = 0; v < g.n(); v += std::max(1u, g.n() / 16)) {
        std::uint32_t covered = 0;
        for (graph::NodeId u = 0; u < g.n(); ++u) {
          auto seg = graph::segment_window(num, u, steps);
          covered += seg.tau_prime[v] >= 0 ? 1 : 0;
        }
        min_cov = std::min(
            min_cov, static_cast<double>(covered) / static_cast<double>(n));
      }
      const double floor = static_cast<double>(tree.height) / (2.0 * n);
      check_internal(min_cov >= floor, "Lemma 1 coverage violated");
      t.add_row({fmt(tree.height), fmt(min_cov, 3), fmt(floor, 3)});
    }
    t.print(std::cout);
    std::cout << "  coverage >= d/2n everywhere: Lemma 1 (P_opt bound) "
                 "holds on real tours.\n";
  }
  return 0;
}
