// qcongest — command-line driver for the library: run any of the paper's
// algorithms (and the extensions) on a generated or file-loaded topology.
//
//   qcongest info diam:200:12
//   qcongest diameter er:300:0.02 --algo=quantum --seed=7
//   qcongest approx @mygraph.txt --algo=quantum
//   qcongest radius torus:12:12 --algo=census
//   qcongest decide diam:200:10 --threshold=9
//   qcongest gen hypercube:8 --out=cube.txt
//   qcongest gen pa:100000:3:7 --out=big.qcg
//   qcongest graph-info @big.qcg
//
// Graphs are given as a generator spec (see `qcongest help`) or as
// "@path" to load a graph file — the format is auto-detected by content:
// .qcg binary container (by magic), native edge list, or SNAP-style raw
// dataset (ids compacted).

#include <algorithm>
#include <chrono>
#include <csignal>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include <atomic>

#include "algos/apsp_census.hpp"
#include "algos/bfs_tree.hpp"
#include "algos/diameter_classical.hpp"
#include "congest/shard/sharded_network.hpp"
#include "algos/girth.hpp"
#include "algos/hprw.hpp"
#include "core/quantum_approx.hpp"
#include "core/quantum_decision.hpp"
#include "core/quantum_diameter.hpp"
#include "core/quantum_radius.hpp"
#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "graph/qcg.hpp"
#include "serve/client.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"

namespace {

using namespace qc;

int usage() {
  std::cout <<
      R"(qcongest — quantum CONGEST diameter toolkit (Le Gall & Magniez, PODC 2018)

usage: qcongest <command> <graph> [flags]

commands:
  info        n, m, diameter, radius, center (centralized reference)
  graph-info  format, size, degree stats, load cost — no O(n*BFS) work,
              safe on million-node graphs
  diameter    exact diameter   --algo=classical|quantum|simple   (default quantum)
  approx      3/2-approximation --algo=classical|quantum [--s=N] (default quantum)
  radius      radius + center  --algo=census|quantum             (default quantum)
  girth       shortest cycle length (distributed census)
  decide      diameter > K ?   --threshold=K
  census      all eccentricities (classical O(n)-round APSP census)
  gen         generate a graph --out=FILE (.qcg extension writes the
              binary container)
  run         drive one distributed algorithm on the CONGEST simulator,
              optionally sharded across worker processes:
              --algo=bfs|ecc|sweep (default ecc), --root=N (default 0),
              --shards=W (default 0 = in-process; W>=1 forks W workers —
              results are bit-identical at every W), --rounds=N (spin N
              extra rounds after the answer; SIGTERM interrupts cleanly)

client mode (against a running qcongestd — see docs/serving.md):
  --server=ENDPOINT     unix:PATH or HOST:PORT; forwards the command to the
                        daemon instead of computing locally. Commands:
                        ping, load, unload, graph-info, diameter,
                        approx (double sweep; --v=ROOT, default 0),
                        radius, ecc (--v=N), girth, stats, shutdown.
                        <graph> is the server-side path of the graph file.

common flags:
  --seed=N              quantum sampling / generator seed (default 7)
  --oracle=direct|simulate  branch-oracle mode (default simulate; direct
                            for big sweeps — bit-identical results)
  --fault-drop=P        per-message drop probability in [0,1] (default 0)
  --fault-corrupt=P     per-message bit-flip probability in [0,1] (default 0)
  --fault-seed=N        fault-plan seed (default 1; same seed = same faults)
  --metrics-out=FILE    write a JSONL metrics capture of the run to FILE
  --quiet               print only the result value

<graph> is a generator spec or @FILE (.qcg binary, native edge list, or
SNAP-style raw dataset — detected by content, not extension).
)" << graph::spec_help()
            << "\n";
  return 2;
}

graph::Graph load(const std::string& arg, std::string* format = nullptr) {
  if (!arg.empty() && arg[0] == '@') {
    return graph::load_graph_file(arg.substr(1), format);
  }
  if (format != nullptr) *format = "generator";
  return graph::make_from_spec(arg);
}

congest::NetworkConfig net_config(const Cli& cli) {
  congest::NetworkConfig net;
  net.fault.drop_probability = cli.get_double("fault-drop", 0.0);
  net.fault.corrupt_probability = cli.get_double("fault-corrupt", 0.0);
  net.fault.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  return net;
}

// Quantum front-end reports carry subroutine failures (e.g. a fault plan
// breaking a Figure 2 invariant) instead of throwing; the CLI turns them
// back into a loud nonzero exit so a value of 0 is never mistaken for an
// answer.
template <typename Report>
void require_subroutine_ok(const Report& rep) {
  require(!rep.subroutine_failed,
          "quantum subroutine failed: " + rep.failure_reason);
}

// A flag value outside its documented set. main() prints it and exits 2,
// so a typo never silently selects a default path.
struct BadFlagValue : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// The value of --name (`def` when absent), which must be one of `valid`.
std::string choice(const Cli& cli, const std::string& name,
                   const std::string& def,
                   std::initializer_list<std::string_view> valid) {
  const std::string value = cli.get_string(name, def);
  std::string expected;
  for (const std::string_view v : valid) {
    if (value == v) return value;
    if (!expected.empty()) expected += '|';
    expected += v;
  }
  throw BadFlagValue("unknown --" + name + " '" + value + "' (expected " +
                     expected + ")");
}

core::QuantumConfig quantum_config(const Cli& cli) {
  core::QuantumConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  cfg.oracle = choice(cli, "oracle", "simulate", {"direct", "simulate"}) ==
                       "direct"
                   ? core::OracleMode::kDirect
                   : core::OracleMode::kSimulate;
  cfg.net = net_config(cli);
  return cfg;
}

// Client mode: `--server=ENDPOINT` forwards the command to a running
// qcongestd instead of computing locally. The <graph> positional is the
// *server-side* path (a leading '@' is accepted and stripped so the same
// invocation shape works in both modes).
int run_client(const Cli& cli, const std::string& cmd,
               const std::vector<std::string>& pos) {
  const bool quiet = cli.get_bool("quiet", false);
  // The daemon answers from its exact engine and is sent neither flag, so
  // any value would be silently ignored.
  for (const char* flag : {"oracle", "algo"}) {
    if (cli.has(flag)) {
      throw BadFlagValue(std::string("client mode does not take --") + flag +
                         " (the daemon answers from its exact engine)");
    }
  }
#ifdef SIGPIPE
  // A daemon that dies mid-conversation must surface as a write error,
  // not kill the client (MSG_NOSIGNAL covers Linux; this covers macOS).
  std::signal(SIGPIPE, SIG_IGN);
#endif
  auto client = serve::Client::connect(cli.get_string("server", ""));
  serve::Request req;
  if (pos.size() >= 2) {
    req.path = pos[1][0] == '@' ? pos[1].substr(1) : pos[1];
  }
  const bool needs_graph = cmd != "ping" && cmd != "stats" &&
                           cmd != "shutdown";
  require(!needs_graph || !req.path.empty(),
          "client " + cmd + ": a graph path argument is required");

  if (cmd == "ping") req.op = serve::Op::kPing;
  else if (cmd == "load") req.op = serve::Op::kLoad;
  else if (cmd == "unload") req.op = serve::Op::kUnload;
  else if (cmd == "graph-info") req.op = serve::Op::kGraphInfo;
  else if (cmd == "diameter") req.op = serve::Op::kDiameter;
  else if (cmd == "approx") req.op = serve::Op::kApprox;
  else if (cmd == "radius") req.op = serve::Op::kRadius;
  else if (cmd == "ecc") req.op = serve::Op::kEcc;
  else if (cmd == "girth") req.op = serve::Op::kGirth;
  else if (cmd == "stats") req.op = serve::Op::kStats;
  else if (cmd == "shutdown") req.op = serve::Op::kShutdown;
  else {
    std::cerr << "client mode does not support command '" << cmd << "'\n";
    return 2;
  }
  if (cmd == "ecc") {
    require(cli.has("v"), "client ecc: --v=VERTEX is required");
    req.arg = static_cast<std::uint64_t>(cli.get_int("v", 0));
  }
  if (cmd == "approx") {
    // Server-side approx is a double sweep, not sampling: --v picks the
    // BFS root of the first sweep (default 0), matching docs/serving.md.
    req.arg = static_cast<std::uint64_t>(cli.get_int("v", 0));
  }

  const auto resp = client.call(req);
  if (resp.status != serve::Status::kOk) {
    std::cerr << "server " << serve::status_name(resp.status) << ": "
              << resp.message << "\n";
    return 1;
  }
  if (quiet) {
    // Same quiet-mode convention as the local commands (girth prints
    // "none" on forests instead of the kUnreachable sentinel).
    if (req.op == serve::Op::kGirth && resp.value == graph::kUnreachable) {
      std::cout << "none\n";
    } else {
      std::cout << resp.value << "\n";
    }
    return 0;
  }
  switch (req.op) {
    case serve::Op::kPing:
      std::cout << "pong from " << cli.get_string("server", "") << "\n";
      break;
    case serve::Op::kLoad:
      std::cout << "loaded " << req.path << ": n = " << resp.value
                << ", m = " << resp.aux << " (" << resp.message << ")\n";
      break;
    case serve::Op::kUnload:
      std::cout << "unloaded " << req.path << "\n";
      break;
    case serve::Op::kGraphInfo:
      std::cout << "n = " << resp.value << ", m = " << resp.aux << "  "
                << resp.message << "\n";
      break;
    case serve::Op::kDiameter:
      std::cout << "diameter = " << resp.value << "  (served)\n";
      break;
    case serve::Op::kApprox:
      std::cout << "estimate in [" << resp.value << ", " << resp.aux
                << "]  (double sweep, lb <= D <= 2*lb)\n";
      break;
    case serve::Op::kRadius:
      std::cout << "radius = " << resp.value << ", center = " << resp.aux
                << "  (served)\n";
      break;
    case serve::Op::kEcc:
      std::cout << "ecc(" << req.arg << ") = " << resp.value
                << "  (served)\n";
      break;
    case serve::Op::kGirth:
      if (resp.value == graph::kUnreachable) {
        std::cout << "girth = none (forest)\n";
      } else {
        std::cout << "girth = " << resp.value << "  (served)\n";
      }
      break;
    case serve::Op::kStats:
      std::cout << resp.message << "\n";
      break;
    case serve::Op::kShutdown:
      std::cout << "server shutting down\n";
      break;
  }
  return 0;
}

}  // namespace

// Cooperative stop for `qcongest run`: SIGTERM/SIGINT raise the flag, the
// round loop (coordinator-side for sharded runs, the driver's spin loop
// otherwise) notices at the next round barrier and winds down cleanly —
// workers reaped, exit 0.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

// The `run` command body, generic over the execution engine (in-process
// Network or multi-process ShardedNetwork — the same template drivers the
// parity tests exercise). Returns the process exit code.
template <typename Net>
int run_distributed(Net& net, const graph::Graph& g, const std::string& algo,
                    graph::NodeId root, std::uint32_t spin_rounds,
                    bool quiet) {
  require(root < g.n(), "run: --root out of range");
  congest::RunStats total;
  Table t({"property", "value"});
  std::uint64_t answer = 0;
  if (algo == "bfs") {
    const auto out = algos::build_bfs_tree_on(net, root);
    total = out.stats;
    answer = out.tree.height;
    t.add_row({"algo", "bfs"});
    t.add_row({"root", fmt(root)});
    t.add_row({"tree height", fmt(out.tree.height)});
    t.add_row({"status", algos::to_string(out.status)});
  } else if (algo == "ecc") {
    const auto out = algos::compute_eccentricity_on(net, root);
    total = out.stats;
    answer = out.ecc;
    t.add_row({"algo", "ecc"});
    t.add_row({"root", fmt(root)});
    t.add_row({"eccentricity", fmt(out.ecc)});
    t.add_row({"status", algos::to_string(out.status)});
  } else if (algo == "sweep") {
    // Double sweep: ecc from the root, then ecc from the farthest node
    // found — a classical diameter lower bound in two O(D) phases.
    const auto first = algos::compute_eccentricity_on(net, root);
    graph::NodeId far = root;
    for (graph::NodeId v = 0; v < g.n(); ++v) {
      if (first.tree.depth[v] > first.tree.depth[far]) far = v;
    }
    const auto second = algos::compute_eccentricity_on(net, far);
    total = first.stats;
    total += second.stats;
    answer = second.ecc;
    t.add_row({"algo", "sweep"});
    t.add_row({"root", fmt(root)});
    t.add_row({"far vertex", fmt(far)});
    t.add_row({"diameter lower bound", fmt(second.ecc)});
    t.add_row({"status", algos::to_string(
                             algos::worst_of(first.status, second.status))});
  }
  // Optional spin phase: keep the (quiescent) network ticking so signal
  // handling and long-running shard sessions can be exercised end to end.
  // Chunked so the driver notices g_stop between chunks on any engine.
  std::uint32_t spun = 0;
  while (spun < spin_rounds && !g_stop.load(std::memory_order_relaxed)) {
    const std::uint32_t chunk = std::min(spin_rounds - spun, 64u);
    total += net.run_rounds(chunk);
    spun += chunk;
  }
  if (g_stop.load(std::memory_order_relaxed)) {
    std::cout << "interrupted\n";
    return 0;
  }
  if (quiet) {
    std::cout << answer << "\n";
    return 0;
  }
  t.add_row({"rounds", fmt(total.rounds)});
  t.add_row({"messages", fmt(total.messages)});
  t.add_row({"bits", fmt(total.bits)});
  t.print(std::cout);
  return 0;
}

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  // Strict flag checking: a typo'd flag (--sead=7) or malformed value
  // (--seed=abc) aborts with a message instead of being silently ignored.
  cli.expect_flags({"seed", "oracle", "fault-drop", "fault-corrupt",
                    "fault-seed", "quiet", "algo", "s", "threshold", "out",
                    "metrics-out", "server", "v", "root",
                    "shards", "rounds"});
  const auto& pos = cli.positional();
  if (pos.empty()) return usage();
  const std::string cmd = pos[0];
  const bool quiet = cli.get_bool("quiet", false);
  if (cmd == "help") return usage();
  if (cli.has("server")) return run_client(cli, cmd, pos);
  if (pos.size() < 2) return usage();
  // Parsed before any work, whichever local command runs, so a bad
  // --oracle is rejected even where it would not be read.
  const core::QuantumConfig qcfg = quantum_config(cli);
  // Likewise --algo: a command without an algorithm choice would ignore it.
  constexpr std::string_view kTakesAlgo[] = {"diameter", "approx", "radius",
                                             "decide", "run"};
  if (cli.has("algo") && std::find(std::begin(kTakesAlgo),
                                   std::end(kTakesAlgo),
                                   cmd) == std::end(kTakesAlgo)) {
    throw BadFlagValue(cmd + " does not take --algo");
  }
  // The export session outlives the root span (destruction runs in reverse
  // order), so the span is closed by the time the JSONL is written.
  metrics::ScopedExport metrics_session(cli.get_string("metrics-out", ""));
  metrics::ScopedTimer cli_span("cli." + cmd);
  metrics::PhaseTimer load_span(metrics::global(), "cli.load_graph");
  std::string format;
  const auto load_start = std::chrono::steady_clock::now();
  auto g = load(pos[1], &format);
  const double load_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - load_start)
          .count();
  load_span.finish();
  metrics::gauge("cli.graph_n", static_cast<double>(g.n()));
  metrics::gauge("cli.graph_m", static_cast<double>(g.m()));

  if (cmd == "gen") {
    const std::string out = cli.get_string("out", "");
    require(!out.empty(), "gen: --out=FILE is required");
    // A .qcg extension selects the binary container; anything else keeps
    // the diff-friendly text edge list.
    if (out.size() >= 4 && out.compare(out.size() - 4, 4, ".qcg") == 0) {
      graph::write_qcg_file(out, g);
    } else {
      graph::write_edge_list_file(out, g,
                                  "generated by qcongest gen " + pos[1]);
    }
    std::cout << "wrote " << g.describe() << " to " << out << "\n";
    return 0;
  }

  if (cmd == "graph-info") {
    // Deliberately avoids diameter/radius (O(n * BFS)) so it stays usable
    // on million-node graphs: everything below is O(n + m) at worst.
    Table t({"property", "value"});
    t.add_row({"source", pos[1][0] == '@' ? pos[1].substr(1) : pos[1]});
    t.add_row({"format", format});
    if (format == "qcg") {
      const auto info = graph::qcg_info_file(pos[1].substr(1));
      t.add_row({"qcg version", fmt(static_cast<std::uint64_t>(info.version))});
      t.add_row({"qcg encoding", "varint"});
      t.add_row({"file bytes", fmt(info.file_bytes)});
      t.add_row({"bytes/edge", fmt(info.bytes_per_edge(), 2)});
    }
    t.add_row({"n", fmt(g.n())});
    t.add_row({"m", fmt(g.m())});
    std::uint32_t dmin = g.n() == 0 ? 0 : 0xFFFFFFFFu;
    std::uint32_t dmax = 0;
    for (graph::NodeId v = 0; v < g.n(); ++v) {
      dmin = std::min(dmin, g.degree(v));
      dmax = std::max(dmax, g.degree(v));
    }
    t.add_row({"degree min", fmt(dmin)});
    t.add_row({"degree max", fmt(dmax)});
    t.add_row({"degree avg",
               fmt(g.n() == 0 ? 0.0
                              : 2.0 * static_cast<double>(g.m()) /
                                    static_cast<double>(g.n()),
                   2)});
    t.add_row({"load ms", fmt(load_ms, 2)});
    t.print(std::cout);
    return 0;
  }

  if (cmd == "info") {
    Table t({"property", "value"});
    t.add_row({"n", fmt(g.n())});
    t.add_row({"m", fmt(g.m())});
    t.add_row({"connected", g.is_connected() ? "yes" : "no"});
    if (g.is_connected()) {
      t.add_row({"diameter", fmt(graph::diameter(g))});
      t.add_row({"radius", fmt(graph::radius(g))});
      t.add_row({"center", fmt(graph::center(g))});
    }
    t.print(std::cout);
    return 0;
  }

  require(g.is_connected(), "this command requires a connected graph");

  if (cmd == "diameter") {
    const std::string algo =
        choice(cli, "algo", "quantum", {"classical", "quantum", "simple"});
    if (algo == "classical") {
      auto rep = algos::classical_exact_diameter(g, net_config(cli));
      if (quiet) {
        std::cout << rep.diameter << "\n";
        return 0;
      }
      std::cout << "diameter = " << rep.diameter << "  ("
                << rep.stats.rounds << " CONGEST rounds, classical O(n+D))\n";
      return 0;
    }
    auto rep = algo == "simple" ? core::quantum_diameter_simple(g, qcfg)
                                : core::quantum_diameter_exact(g, qcfg);
    const metrics::ScopedTimer report_span("cli.report");
    require_subroutine_ok(rep);
    if (quiet) {
      std::cout << rep.diameter << "\n";
      return 0;
    }
    std::cout << "diameter = " << rep.diameter << "  (" << rep.total_rounds
              << " CONGEST rounds, "
              << (algo == "simple" ? "Section 3.1 O~(sqrt(n) D)"
                                   : "Theorem 1 O~(sqrt(nD))")
              << ", " << rep.costs.grover_iterations
              << " Grover iterations, " << rep.leader_memory_qubits
              << " leader qubits)\n";
    return 0;
  }

  if (cmd == "approx") {
    const std::string algo =
        choice(cli, "algo", "quantum", {"classical", "quantum"});
    const auto s = static_cast<std::uint32_t>(cli.get_int("s", 0));
    if (algo == "classical") {
      auto rep = algos::classical_approx_diameter(g, s, net_config(cli));
      require(!rep.aborted, "approx: sampling aborted; re-run");
      if (quiet) {
        std::cout << rep.estimate << "\n";
        return 0;
      }
      std::cout << "estimate = " << rep.estimate << "  (" << rep.stats.rounds
                << " rounds, s = " << rep.s_used
                << ", guarantee est <= D <= 3*est/2)\n";
      return 0;
    }
    auto rep = core::quantum_diameter_approx(g, qcfg, s);
    const metrics::ScopedTimer report_span("cli.report");
    require_subroutine_ok(rep);
    require(!rep.aborted, "approx: sampling aborted; re-run");
    if (quiet) {
      std::cout << rep.estimate << "\n";
      return 0;
    }
    std::cout << "estimate = " << rep.estimate << "  (" << rep.total_rounds
              << " rounds = " << rep.prep_rounds << " prep + "
              << rep.quantum_rounds << " quantum, s = " << rep.s_used
              << ", Theorem 4 O~(cbrt(nD)+D))\n";
    return 0;
  }

  if (cmd == "radius") {
    const std::string algo =
        choice(cli, "algo", "quantum", {"census", "quantum"});
    if (algo == "census") {
      auto rep = algos::classical_apsp_census(g, net_config(cli));
      if (quiet) {
        std::cout << rep.radius << "\n";
        return 0;
      }
      std::cout << "radius = " << rep.radius << ", center = " << rep.center
                << "  (" << rep.stats.rounds << " rounds, classical census)\n";
      return 0;
    }
    auto rep = core::quantum_radius(g, qcfg);
    const metrics::ScopedTimer report_span("cli.report");
    require_subroutine_ok(rep);
    if (quiet) {
      std::cout << rep.radius << "\n";
      return 0;
    }
    std::cout << "radius = " << rep.radius << ", center = " << rep.center
              << "  (" << rep.total_rounds
              << " rounds, quantum minimum finding)\n";
    return 0;
  }

  if (cmd == "decide") {
    require(cli.has("threshold"), "decide: --threshold=K is required");
    choice(cli, "algo", "quantum", {"quantum"});
    const auto k = static_cast<std::uint32_t>(cli.get_int("threshold", 0));
    auto rep = core::quantum_diameter_decide(g, k, qcfg);
    const metrics::ScopedTimer report_span("cli.report");
    require_subroutine_ok(rep);
    if (quiet) {
      std::cout << (rep.diameter_exceeds ? 1 : 0) << "\n";
      return 0;
    }
    std::cout << "diameter " << (rep.diameter_exceeds ? "> " : "<= ") << k
              << "  (" << rep.total_rounds << " rounds";
    if (rep.diameter_exceeds && rep.witness != graph::kInvalidNode) {
      std::cout << ", witness window at node " << rep.witness;
    }
    std::cout << ")\n";
    return 0;
  }

  if (cmd == "girth") {
    auto rep = algos::classical_girth_census(g, net_config(cli));
    if (quiet) {
      if (rep.girth == graph::kUnreachable) {
        std::cout << "none\n";
      } else {
        std::cout << rep.girth << "\n";
      }
      return 0;
    }
    if (rep.girth == graph::kUnreachable) {
      std::cout << "girth = none (forest)";
    } else {
      std::cout << "girth = " << rep.girth;
    }
    std::cout << "  (" << rep.stats.rounds
              << " rounds, distributed Itai-Rodeh census";
    if (rep.status != algos::PhaseStatus::kQuiesced) {
      std::cout << ", status " << algos::to_string(rep.status);
    }
    std::cout << ")\n";
    return 0;
  }

  if (cmd == "census") {
    auto rep = algos::classical_apsp_census(g, net_config(cli));
    Table t({"property", "value"});
    t.add_row({"diameter", fmt(rep.diameter)});
    t.add_row({"radius", fmt(rep.radius)});
    t.add_row({"center", fmt(rep.center)});
    t.add_row({"periphery", fmt(rep.periphery)});
    t.add_row({"rounds", fmt(rep.stats.rounds)});
    t.print(std::cout);
    return 0;
  }

  if (cmd == "run") {
    const std::string algo =
        choice(cli, "algo", "ecc", {"bfs", "ecc", "sweep"});
    const auto root =
        static_cast<graph::NodeId>(cli.get_int("root", 0));
    const auto shards = static_cast<std::uint32_t>(cli.get_int("shards", 0));
    const auto spin = static_cast<std::uint32_t>(cli.get_int("rounds", 0));
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    if (shards == 0) {
      congest::Network net(g, net_config(cli));
      return run_distributed(net, g, algo, root, spin, quiet);
    }
    congest::shard::ShardConfig scfg;
    scfg.shards = shards;
    scfg.net = net_config(cli);
    scfg.stop = &g_stop;
    congest::shard::ShardedNetwork net(g, scfg);
    const int rc = run_distributed(net, g, algo, root, spin, quiet);
    // Worker pids go to stderr so stdout stays byte-identical across
    // worker counts (the e2e parity check diffs it); scripts use them to
    // audit process hygiene after exit. Printed after the run because
    // each phase's init_programs respawns the worker set.
    std::cerr << "workers:";
    for (const pid_t pid : net.worker_pids()) std::cerr << " " << pid;
    std::cerr << "\n";
    net.shutdown();
    return rc;
  }

  std::cerr << "unknown command '" << cmd << "'\n";
  return usage();
} catch (const BadFlagValue& e) {
  std::cerr << e.what() << "\n";
  return 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
