#include "workloads.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "algos/evaluation.hpp"
#include "algos/leader_election.hpp"
#include "core/quantum_diameter.hpp"
#include "core/quantum_radius.hpp"
#include "graph/algorithms.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/bits.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

using namespace qc;

namespace {

/// dataset-10k-direct cycles through this many fixed quantum seeds (the
/// run seed picks where the cycle starts). The Grover schedule's random
/// iteration counts swing a single op by ±25%, so every run covers the
/// same seed set and runs stay comparable.
constexpr std::uint64_t kDatasetQuantumSeeds = 4;

/// Set-up repeats: the cheap set-ups (graph construction or load) are
/// timed in a batch before every op, so setup_s is a median over the
/// whole run rather than over one moment of it; a server start is
/// timed kServerSetups times before the loop.
constexpr int kSetupBatch = 20;
constexpr int kServerSetups = 5;

/// serve-10k-mix: load-generating connections and the approx root pool.
constexpr int kServeClients = 2;
constexpr std::uint32_t kApproxRoots = 16;

std::string run_file(const Options& opt, const std::string& stem,
                     const std::string& ext) {
  return opt.scratch + "/" + stem + "-" + std::to_string(::getpid()) + ext;
}

/// The double-sweep lower bound the server's approx op computes, from
/// `root`: BFS from root, then from the smallest-id farthest vertex.
std::uint32_t double_sweep_lb(const graph::Graph& g, graph::NodeId root) {
  const auto first = graph::bfs(g, root);
  graph::NodeId far = root;
  for (graph::NodeId v = 0; v < g.n(); ++v) {
    if (first.dist[v] != graph::kUnreachable &&
        first.dist[v] > first.dist[far]) {
      far = v;
    }
  }
  return std::max(first.ecc, graph::bfs(g, far).ecc);
}

}  // namespace

// ---------------------------------------------------------------------------
// Figure 2 (fig2-sim-1024, fig2-metrics-512)

std::uint64_t fig2_graph_seed(std::uint32_t n, std::uint64_t seed) {
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t s = mix_seed(seed, k);
    if (graph::bfs(fig2_graph(n, s), n - 1).ecc == kFig2Diameter) return s;
  }
}

graph::Graph fig2_graph(std::uint32_t n, std::uint64_t graph_seed) {
  Rng rng(graph_seed);
  return graph::make_random_with_diameter(n, kFig2Diameter, rng);
}

namespace {

/// Simulated deliveries of one kSimulate quantum_diameter_exact call on
/// `g`, replayed through the public algos calls: the four initialization
/// phases plus one Figure 2 evaluation per branch (the optimizer
/// evaluates every branch exactly once).
std::uint64_t fig2_messages_per_op(const graph::Graph& g) {
  const congest::NetworkConfig net;
  const auto election = algos::elect_leader(g, net);
  const auto ecc = algos::compute_eccentricity(g, election.leader, net);
  const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
  std::uint64_t messages =
      election.stats.messages + ecc.stats.messages +
      algos::broadcast_from_root(g, ecc.tree, ecc.ecc, id_bits, net)
          .stats.messages +
      algos::broadcast_from_root(g, ecc.tree, 0, id_bits, net).stats.messages;

  std::atomic<std::uint64_t> branch_messages{0};
  std::atomic<graph::NodeId> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  ThreadPool pool;
  for (unsigned w = 0; w < pool.size(); ++w) {
    pool.submit([&] {
      try {
        for (graph::NodeId u0 = next++; u0 < g.n(); u0 = next++) {
          branch_messages += algos::evaluate_window_ecc(g, ecc.tree, u0,
                                                        2 * ecc.ecc, net)
                                 .stats.messages;
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next = g.n();
      }
    });
  }
  pool.wait_idle();
  if (error) std::rethrow_exception(error);
  return messages + branch_messages;
}

}  // namespace

LoopStats run_fig2(Env& env, std::uint32_t n, bool armed) {
  const Options& opt = env.opt;
  Tracer& tr = env.tracer;
  const std::uint64_t graph_seed = fig2_graph_seed(n, opt.seed);
  std::optional<graph::Graph> g;
  SetupClock setup;
  setup.time([&] { g = fig2_graph(n, graph_seed); });
  const auto setup_batch = [&] {
    for (int r = 0; r < kSetupBatch; ++r) {
      setup.time([&] { (void)fig2_graph(n, graph_seed); });
    }
  };

  const std::uint32_t expected =
      graph::EccEngine(*g).diameter() + (opt.wrong_reference ? 1 : 0);
  const std::string export_path = run_file(opt, "metrics", ".jsonl");
  std::vector<double> rounds;
  std::vector<double> armed_messages;
  const LoopStats loop =
      closed_loop(tr, opt.seconds, env.min_ops(), [&](std::uint64_t i) {
        core::QuantumConfig cfg;
        cfg.seed = mix_seed(opt.seed, i);
        std::unique_ptr<metrics::ScopedExport> session;
        if (armed) {
          Span s(tr, "metrics.ScopedExport");
          session = std::make_unique<metrics::ScopedExport>(export_path);
        }
        const bool armed_as_asked = metrics::enabled() == armed;
        core::QuantumDiameterReport rep;
        {
          Span s(tr, "core.quantum_diameter_exact");
          rep = core::quantum_diameter_exact(*g, cfg);
        }
        if (armed) {
          armed_messages.push_back(static_cast<double>(
              session->registry()->counter_value("congest.messages")));
          Span s(tr, "metrics.export_jsonl");
          session.reset();
        }
        rounds.push_back(static_cast<double>(rep.total_rounds));
        env.res.record(armed_as_asked && !rep.subroutine_failed &&
                           rep.diameter == expected &&
                           rep.distinct_branch_evaluations == n,
                       "quantum_diameter_exact: wrong diameter or branch count");
      },
      setup_batch);
  if (armed) {
    env.res.record(std::filesystem::file_size(export_path) > 0,
                   "metrics export is empty");
    std::filesystem::remove(export_path);
  }

  report_loop(env.res, setup.median_s(), loop);
  const double messages = armed ? median(armed_messages)
                                : static_cast<double>(fig2_messages_per_op(*g));
  double busy_s = 0;
  for (const double ms : loop.ms) busy_s += ms / 1e3;
  env.res.report.set("model_rounds", median(rounds), "rounds");
  env.res.report.set("sim_messages_per_op", messages, "count");
  env.res.report.set("sim_msgs_per_s",
                     messages * static_cast<double>(loop.ms.size()) / busy_s,
                     "1/s");
  env.res.report.set("graph_m", static_cast<double>(g->m()), "count");
  return loop;
}

// ---------------------------------------------------------------------------
// dataset-10k-direct

LoopStats run_dataset_direct(Env& env) {
  const Options& opt = env.opt;
  Tracer& tr = env.tracer;
  std::optional<graph::Graph> g;
  SetupClock setup;
  setup.time([&] { g = graph::load_graph_file(kDataset); });
  const auto setup_batch = [&] {
    for (int r = 0; r < kSetupBatch; ++r) {
      setup.time([] { (void)graph::load_graph_file(kDataset); });
    }
  };

  const graph::EccEngine ref(*g);
  const std::uint32_t wrong = opt.wrong_reference ? 1 : 0;
  const std::uint32_t diameter = ref.diameter() + wrong;
  const std::uint32_t radius = ref.radius() + wrong;
  std::vector<double> rounds;
  const LoopStats loop =
      closed_loop(tr, opt.seconds, env.min_ops(), [&](std::uint64_t i) {
        core::QuantumConfig cfg;
        cfg.oracle = core::OracleMode::kDirect;
        cfg.seed = 1 + (opt.seed + i) % kDatasetQuantumSeeds;
        core::QuantumDiameterReport d;
        core::RadiusReport r;
        {
          Span s(tr, "core.quantum_diameter_exact");
          d = core::quantum_diameter_exact(*g, cfg);
        }
        {
          Span s(tr, "core.quantum_radius");
          r = core::quantum_radius(*g, cfg);
        }
        rounds.push_back(static_cast<double>(d.total_rounds + r.total_rounds));
        env.res.record(!metrics::enabled() && !d.subroutine_failed &&
                           !r.subroutine_failed && d.diameter == diameter &&
                           r.radius == radius &&
                           ref.eccentricity(r.center) == radius,
                       "dataset: wrong diameter, radius or center");
      },
      setup_batch);

  report_loop(env.res, setup.median_s(), loop);
  env.res.report.set("model_rounds", median(rounds), "rounds");
  return loop;
}

// ---------------------------------------------------------------------------
// serve-10k-mix

namespace {

/// Reference answers for every request the mix can issue, computed
/// outside the timed region.
struct ServeReference {
  std::uint32_t n = 0;
  std::uint32_t diameter = 0;
  std::uint32_t radius = 0;
  std::uint32_t center = 0;
  std::vector<std::uint32_t> ecc;
  std::vector<graph::NodeId> approx_roots;
  std::vector<std::uint32_t> approx_lb;
  std::uint64_t small_n = 0;
  std::uint64_t small_m = 0;
};

ServeReference serve_reference(const Options& opt) {
  const auto g = graph::load_graph_file(kDataset);
  const graph::EccEngine engine(g);
  const auto small = graph::load_graph_file(kSmallSnap);
  const std::uint32_t wrong = opt.wrong_reference ? 1 : 0;
  ServeReference ref;
  ref.n = g.n();
  ref.diameter = engine.diameter() + wrong;
  ref.radius = engine.radius() + wrong;
  ref.center = engine.center();
  ref.ecc = engine.all();
  for (auto& e : ref.ecc) e += wrong;
  Rng rng(mix_seed(opt.seed, 0xa99));
  for (std::uint32_t i = 0; i < kApproxRoots; ++i) {
    const auto root = static_cast<graph::NodeId>(rng.next_below(g.n()));
    ref.approx_roots.push_back(root);
    ref.approx_lb.push_back(double_sweep_lb(g, root) + wrong);
  }
  ref.small_n = small.n();
  ref.small_m = small.m();
  return ref;
}

/// One connection's share of the mix. Only client 0 writes (unload/load
/// of the small graph), so the writes never race each other.
class MixClient {
 public:
  MixClient(const ServeReference& ref, std::uint64_t seed, bool writer)
      : ref_(ref), rng_(seed), writer_(writer) {}

  serve::Request next() {
    serve::Request req;
    req.path = kDataset;
    const std::uint64_t r = rng_.next_below(100);
    if (writer_ && r < 2) {
      req.op = small_resident_ ? serve::Op::kUnload : serve::Op::kLoad;
      req.path = kSmallSnap;
    } else if (r < 12) {
      req.op = serve::Op::kApprox;
      approx_idx_ = rng_.next_below(ref_.approx_roots.size());
      req.arg = ref_.approx_roots[approx_idx_];
    } else {
      static constexpr std::array<serve::Op, 3> kHits = {
          serve::Op::kDiameter, serve::Op::kRadius, serve::Op::kEcc};
      req.op = kHits[rng_.next_below(kHits.size())];
      if (req.op == serve::Op::kEcc) req.arg = rng_.next_below(ref_.n);
    }
    return req;
  }

  /// Checks a response to the request next() just returned.
  bool check(const serve::Request& req, const serve::Response& resp) {
    if (resp.status != serve::Status::kOk) return false;
    switch (req.op) {
      case serve::Op::kDiameter:
        return resp.value == ref_.diameter;
      case serve::Op::kRadius:
        return resp.value == ref_.radius && resp.aux == ref_.center;
      case serve::Op::kEcc:
        return resp.value == ref_.ecc[req.arg];
      case serve::Op::kApprox:
        return resp.value == ref_.approx_lb[approx_idx_] &&
               resp.aux == 2 * resp.value && resp.value <= ref_.diameter &&
               ref_.diameter <= resp.aux;
      case serve::Op::kLoad:
        small_resident_ = true;
        return resp.value == ref_.small_n && resp.aux == ref_.small_m;
      case serve::Op::kUnload:
        small_resident_ = false;
        return true;
      default:
        return false;
    }
  }

 private:
  const ServeReference& ref_;
  Rng rng_;
  bool writer_;
  bool small_resident_ = false;
  std::size_t approx_idx_ = 0;
};

}  // namespace

LoopStats run_serve_mix(Env& env) {
  const Options& opt = env.opt;
  Tracer& tr = env.tracer;
  const ServeReference ref = serve_reference(opt);

  std::unique_ptr<serve::Server> server;
  std::string endpoint;
  const auto retire = [&] {
    env.serve_rejected += server->stats().rejected.load();
    env.serve_errors += server->stats().errors.load();
    server->stop();
    server.reset();
  };
  SetupClock setup;
  for (int r = 0; r < kServerSetups; ++r) {
    if (server) retire();
    setup.time([&] {
      serve::ServerOptions sopts;
      sopts.unix_path = run_file(opt, "serve" + std::to_string(r), ".sock");
      server = std::make_unique<serve::Server>(sopts);
      server->start();
      endpoint = "unix:" + sopts.unix_path;
      auto client = serve::Client::connect(endpoint);
      client.call_ok({serve::Op::kLoad, kDataset, 0});
      const auto first = client.call_ok({serve::Op::kDiameter, kDataset, 0});
      env.res.record(first.value == ref.diameter,
                     "serve: first diameter query is wrong");
    });
  }

  std::vector<LoopStats> per_client(kServeClients);
  std::vector<std::thread> clients;
  std::exception_ptr error;
  std::mutex error_mu;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        auto conn = serve::Client::connect(endpoint);
        MixClient mix(ref, mix_seed(opt.seed, 100 + c), c == 0);
        per_client[c] =
            closed_loop(tr, opt.seconds, env.min_ops(), [&](std::uint64_t) {
              const serve::Request req = mix.next();
              serve::Response resp;
              bool ok = true;
              {
                Span s(tr, "serve.Client::call");
                try {
                  resp = conn.call(req);
                } catch (const std::exception&) {
                  ok = false;
                }
              }
              env.res.record(ok && mix.check(req, resp),
                             "serve: wrong or failed response");
            });
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& t : clients) t.join();
  retire();
  if (error) std::rethrow_exception(error);

  LoopStats loop;
  for (const auto& l : per_client) loop.merge(l);
  report_loop(env.res, setup.median_s(), loop);
  env.res.report.set("serve_rejected", static_cast<double>(env.serve_rejected),
                     "count");
  env.res.report.set("serve_errors", static_cast<double>(env.serve_errors),
                     "count");
  return loop;
}

}  // namespace e2e
