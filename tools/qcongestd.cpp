// qcongestd — the long-running query daemon: holds loaded graphs resident
// and answers concurrent diameter / radius / ecc / girth / graph-info
// queries over the length-prefixed protocol of src/serve/ (spec:
// docs/serving.md). Pairs with `qcongest --server=...` as the client.
//
//   qcongestd --socket=/tmp/qc.sock --preload=data/synth-p2p-10k.qcg
//   qcongestd --port=0 --threads=8 --request-log=requests.jsonl
//
// The first query against a graph pays the compute-once eccentricity
// sweep; every later diameter/radius/ecc answer is a cache hit (no BFS
// work — the whole point of keeping graphs resident).

#include <cerrno>
#include <csignal>
#include <iostream>
#include <thread>

#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define QC_HAVE_SOCKETS 1
#else
#define QC_HAVE_SOCKETS 0
#endif

namespace {

using namespace qc;

int usage() {
  std::cout <<
      R"(qcongestd — resident-graph query daemon for the qcongest toolkit

usage: qcongestd [flags]

flags:
  --socket=PATH        listen on a Unix-domain socket at PATH
  --port=N             listen on 127.0.0.1:N instead (0 = ephemeral port;
                       the bound port is printed on startup)
  --threads=N          compute worker threads (default: hardware)
  --max-pending=N      admission bound on queued+running requests (default 64);
                       live connections are capped at 4x it
  --timeout-ms=N       per-request deadline, 0 = none (default 0)
  --preload=A[,B,...]  graph files to load before accepting connections
  --request-log=FILE   append one JSONL line per request to FILE
  --metrics-out=FILE   write a qc::metrics JSONL capture on shutdown

Exactly one of --socket / --port selects the endpoint. Stop with SIGINT/
SIGTERM or a client `shutdown` request. Protocol spec: docs/serving.md.
)";
  return 2;
}

// Signals are routed through a self-pipe: the handler only write()s (async-
// signal-safe); a normal thread turns the byte into Server::request_stop().
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
#if QC_HAVE_SOCKETS
  const char byte = 1;
  [[maybe_unused]] const auto r = ::write(g_signal_pipe[1], &byte, 1);
#endif
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  cli.expect_flags({"socket", "port", "threads", "max-pending", "timeout-ms",
                    "preload", "request-log", "metrics-out", "help"});
  if (cli.get_bool("help", false)) return usage();

  serve::ServerOptions opts;
  opts.unix_path = cli.get_string("socket", "");
  require(opts.unix_path.empty() || !cli.has("port"),
          "qcongestd: --socket and --port are mutually exclusive");
  require(!opts.unix_path.empty() || cli.has("port"),
          "qcongestd: one of --socket=PATH or --port=N is required");
  // Range-checked flag parsing: an out-of-range or overflowing value
  // (--port=99999999999999999999) aborts here instead of truncating.
  opts.tcp_port =
      static_cast<std::uint16_t>(cli.get_int_in("port", 0, 0, 65535));
  opts.num_threads =
      static_cast<std::uint32_t>(cli.get_int_in("threads", 0, 0, 4096));
  opts.max_pending = static_cast<std::uint32_t>(
      cli.get_int_in("max-pending", 64, 1, 1 << 20));
  opts.timeout_ms = static_cast<std::uint32_t>(
      cli.get_int_in("timeout-ms", 0, 0, 86400000));
  opts.request_log = cli.get_string("request-log", "");

  metrics::ScopedExport metrics_session(cli.get_string("metrics-out", ""));

  serve::Server server(opts);

  // Preload before accepting connections so the first client query hits a
  // resident graph (the ecc sweep itself still runs lazily on first use).
  const std::string preload = cli.get_string("preload", "");
  for (std::size_t start = 0; start < preload.size();) {
    auto end = preload.find(',', start);
    if (end == std::string::npos) end = preload.size();
    const std::string path = preload.substr(start, end - start);
    if (!path.empty()) {
      const auto resident = server.registry().load(path);
      std::cout << "qcongestd: preloaded " << path << " ("
                << resident->graph().describe() << ", "
                << resident->format() << ")\n";
    }
    start = end + 1;
  }

  server.start();
  // The "listening on" line is the readiness signal scripts wait for (and
  // in --port=0 mode the only place the ephemeral port is reported).
  std::cout << "qcongestd: listening on " << server.endpoint() << std::endl;

#if QC_HAVE_SOCKETS
  require(::pipe(g_signal_pipe) == 0, "qcongestd: cannot create signal pipe");
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::thread signal_thread([&server] {
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server.request_stop();
  });
#endif

  server.wait();
  std::cout << "qcongestd: shutting down" << std::endl;
  server.stop();

#if QC_HAVE_SOCKETS
  // Wake the signal thread if no signal ever arrived (shutdown op path).
  const char byte = 1;
  [[maybe_unused]] const auto r = ::write(g_signal_pipe[1], &byte, 1);
  signal_thread.join();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
#endif

  const auto& stats = server.stats();
  std::cout << "qcongestd: served " << stats.requests.load()
            << " requests (" << stats.ok.load() << " ok, "
            << stats.errors.load() << " errors, " << stats.rejected.load()
            << " rejected, " << stats.timeouts.load() << " timeouts)"
            << std::endl;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "qcongestd: error: " << e.what() << "\n";
  return 1;
}
