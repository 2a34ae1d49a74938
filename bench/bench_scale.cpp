// Million-node substrate harness: exercises both load paths — text
// parsing and .qcg varint decode — and the
// algorithm layers on top of it (flat BFS kernel, double-sweep bound, the
// O(D)-round distributed eccentricity, and the full EccEngine on the
// bit-parallel multi-source kernel) at 10^4..10^6 nodes, using the
// checked-in datasets under data/.
//
// Modes:
//   --quick    CI smoke: the two committed datasets, loads + BFS + double
//              sweep only (plus CONGEST ecc on the 10k graph)
//   (default)  + the distributed O(D) eccentricity on the 100k graph
//   --full     + full EccEngine diameter/radius on the 100k graph and a
//              generated-and-cached 10^6-node graph, including the
//              exhaustive n-BFS engine sweep (bit-parallel kernel)
//
// A table cell a mode does not run prints `-`.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "bench/harness.hpp"
#include "graph/algorithms.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/io.hpp"
#include "graph/qcg.hpp"
#include "util/error.hpp"

using namespace qc;
using namespace qc::bench;

namespace {

namespace fs = std::filesystem;

double ms_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

struct CongestRow {
  std::uint32_t rounds = 0;
  std::uint64_t messages = 0;
};

struct EngineRow {
  std::uint32_t diameter = 0;
  std::uint32_t radius = 0;
  double ms = 0;
};

struct ScaleRow {
  std::string dataset;
  std::uint32_t n = 0;
  std::uint64_t m = 0;
  std::optional<double> text_load_ms;
  std::optional<double> varint_load_ms;
  double bfs_avg_ms = 0;
  std::uint32_t dsweep_lb = 0;
  std::optional<CongestRow> congest;
  std::optional<EngineRow> engine;
};

struct TimedLoad {
  graph::Graph g;
  double ms = 0;
};

TimedLoad time_load(const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  auto g = graph::load_graph_file(path);
  const double ms = ms_since(t0);
  return {std::move(g), ms};
}

// k-source flat BFS: average per-source time, plus the double-sweep lower
// bound (BFS from 0, then from the farthest *reachable* vertex found).
void measure_bfs(const graph::Graph& g, std::uint32_t sources,
                 ScaleRow& row) {
  graph::BfsScratch scratch;
  const auto t0 = std::chrono::steady_clock::now();
  // Spread the roots deterministically across the id space.
  for (std::uint32_t i = 0; i < sources; ++i) {
    const auto root = static_cast<graph::NodeId>(
        (static_cast<std::uint64_t>(i) * g.n()) / sources);
    graph::flat_bfs_distances(g, root, scratch);
  }
  row.bfs_avg_ms = ms_since(t0) / sources;

  graph::flat_bfs_distances(g, 0, scratch);
  graph::NodeId far = 0;
  for (graph::NodeId v = 0; v < g.n(); ++v) {
    if (scratch.dist[v] != graph::kUnreachable &&
        scratch.dist[v] > scratch.dist[far]) {
      far = v;
    }
  }
  graph::flat_bfs_distances(g, far, scratch);
  row.dsweep_lb = scratch.finite_ecc;
}

CongestRow congest_ecc(const graph::Graph& g) {
  const auto out = algos::compute_eccentricity(g, 0);
  check_internal(out.status == algos::PhaseStatus::kQuiesced,
                 "bench_scale: fault-free eccentricity did not quiesce");
  return {out.stats.rounds, out.stats.messages};
}

EngineRow engine_sweep(const graph::Graph& g) {
  const auto t0 = std::chrono::steady_clock::now();
  graph::EccEngine engine(g);  // kAuto: bit-parallel at these sizes
  EngineRow e;
  e.diameter = engine.diameter();
  e.radius = engine.radius();
  e.ms = ms_since(t0);
  return e;
}

std::string opt_num(const std::optional<double>& v) {
  return v ? fmt(*v, 2) : std::string("-");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt =
      BenchOptions::parse(argc, argv, {"full", "data-dir"});
  Cli cli(argc, argv);
  const bool full = cli.get_bool("full", false);
  require(!(full && opt.quick), "bench_scale: pick one of --quick / --full");
  const std::string data_dir = cli.get_string("data-dir", QC_DATA_DIR);
  const auto cache_dir = fs::temp_directory_path() / "qc_bench_scale";
  fs::create_directories(cache_dir);

  banner("Million-node substrate: load paths + baselines at 10^4..10^6",
         "text parse vs varint decode; flat BFS, double "
         "sweep,\nO(D)-round distributed eccentricity, full EccEngine on "
         "the bit-parallel kernel");

  std::vector<ScaleRow> rows;

  // --- 10k: the p2p-Gnutella04-sized graph, both load paths. ---
  {
    ScaleRow r;
    r.dataset = "synth-p2p-10k";
    r.text_load_ms = time_load(data_dir + "/synth-p2p-10k.txt").ms;
    auto [g, varint_ms] = time_load(data_dir + "/synth-p2p-10k.qcg");
    r.varint_load_ms = varint_ms;
    r.n = g.n();
    r.m = g.m();
    measure_bfs(g, opt.quick ? 4 : 8, r);
    r.congest = congest_ecc(g);
    if (full) r.engine = engine_sweep(g);
    rows.push_back(std::move(r));
  }

  // --- 100k: the acceptance-scale dataset. ---
  {
    ScaleRow r;
    r.dataset = "synth-p2p-100k";
    auto [g, varint_ms] = time_load(data_dir + "/synth-p2p-100k.qcg");
    r.varint_load_ms = varint_ms;
    r.n = g.n();
    r.m = g.m();
    measure_bfs(g, opt.quick ? 4 : 8, r);
    if (!opt.quick) r.congest = congest_ecc(g);
    if (full) r.engine = engine_sweep(g);
    rows.push_back(std::move(r));
  }

  // --- 1M: generated once, cached as .qcg under the temp dir. ---
  if (full) {
    ScaleRow r;
    r.dataset = "pa-1m";
    const auto cached = (cache_dir / "pa-1m.qcg").string();
    if (!graph::is_qcg_file(cached)) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto g = graph::make_from_spec("pa:1000000:3:42");
      std::cout << "generated pa:1000000:3:42 in " << fmt(ms_since(t0), 0)
                << " ms, caching " << cached << "\n";
      graph::write_qcg_file(cached, g);
    }
    auto [g, varint_ms] = time_load(cached);
    r.varint_load_ms = varint_ms;
    r.n = g.n();
    r.m = g.m();
    measure_bfs(g, 8, r);
    r.congest = congest_ecc(g);
    // Sampled 32-source eccentricity lower bound: kept as a cheap
    // cross-check of the exhaustive sweep below.
    graph::BfsScratch scratch;
    std::uint32_t best = r.dsweep_lb;
    for (std::uint32_t i = 0; i < 32; ++i) {
      const auto root = static_cast<graph::NodeId>(
          (static_cast<std::uint64_t>(i) * g.n()) / 32);
      graph::flat_bfs_distances(g, root, scratch);
      best = std::max(best, scratch.finite_ecc);
    }
    // The exhaustive n-BFS sweep — infeasible on the flat kernel (hours),
    // feasible on the bit-parallel one. This is the row PR 7 exists for.
    r.engine = engine_sweep(g);
    check_internal(r.engine->diameter >= best,
                   "bench_scale: exhaustive diameter below sampled bound");
    rows.push_back(std::move(r));
  }

  std::cout << "\n";
  Table t({"dataset", "n", "m", "text ms", "varint ms", "bfs ms",
           "dsweep lb", "congest rounds", "congest msgs",
           "engine D", "engine R", "engine ms"});
  for (const auto& r : rows) {
    t.add_row({r.dataset, fmt(r.n), fmt(r.m), opt_num(r.text_load_ms),
               opt_num(r.varint_load_ms), fmt(r.bfs_avg_ms, 3),
               fmt(r.dsweep_lb),
               r.congest ? fmt(r.congest->rounds) : std::string("-"),
               r.congest ? fmt(r.congest->messages) : std::string("-"),
               r.engine ? fmt(r.engine->diameter) : std::string("-"),
               r.engine ? fmt(r.engine->radius) : std::string("-"),
               r.engine ? fmt(r.engine->ms, 1) : std::string("-")});
  }
  t.print(std::cout);
  return 0;
}
