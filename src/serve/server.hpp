#pragma once

// qcongestd server core: a long-running query service over resident graphs.
//
// Architecture (one box per layer the request crosses):
//
//   accept thread ── one blocking reader thread per connection, at most
//        │           kConnectionsPerPending x max_pending of them
//        │                 │  read_frame / decode_request (validated;
//        │                 │  a begun frame must finish within its deadline)
//        │                 ▼
//        │          bounded admission: pending >= max_pending → kRejected
//        │                 │
//        │                 ▼
//        │          qc::ThreadPool workers execute the op against the
//        │          GraphRegistry (shared EccEngine per resident graph —
//        │          the ecc table is computed once and served forever)
//        │                 │
//        │                 ▼
//        │          reader waits with a deadline; kTimeout when the
//        │          deadline passes (the worker's late result is dropped)
//        │
//        └── per-request metrics: qc::metrics span/counters + an optional
//            JSONL request log (request id, op, graph, status, latency).
//
// The server binds either a Unix-domain socket path or loopback TCP
// (127.0.0.1; port 0 picks an ephemeral port, readable via port()).
// Lifecycle: construct → start() → [serve] → wait() returns once a client
// sends kShutdown or request_stop() is called → stop() joins everything.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/thread_pool.hpp"

namespace qc::serve {

/// Longest a connection may take to finish a frame it has begun; a
/// per-request deadline (ServerOptions::timeout_ms) below it takes its
/// place. A peer that stalls mid-frame is closed and counted in
/// serve.bad_requests; one that idles between frames is not.
inline constexpr std::uint32_t kMaxFrameDeadlineMs = 10000;

/// Live connections are capped at this multiple of
/// ServerOptions::max_pending; one more is answered with a single
/// kRejected frame, closed and counted in ServerStats::rejected.
inline constexpr std::uint32_t kConnectionsPerPending = 4;

struct ServerOptions {
  /// Unix-domain socket path; when empty the server listens on loopback
  /// TCP instead.
  std::string unix_path;
  /// TCP port on 127.0.0.1 (ignored when unix_path is set); 0 binds an
  /// ephemeral port — read the actual one back via port().
  std::uint16_t tcp_port = 0;
  /// Compute workers; 0 means hardware_concurrency.
  std::uint32_t num_threads = 0;
  /// Admission bound: requests queued or executing; one more is rejected
  /// with kRejected instead of growing an unbounded queue. It also caps
  /// live connections (kConnectionsPerPending x max_pending).
  std::uint32_t max_pending = 64;
  /// Per-request deadline in ms measured from admission; 0 disables.
  /// A request that misses it answers kTimeout (the computation itself
  /// cannot be cancelled; its result is discarded). It also bounds the
  /// arrival of a begun frame when below kMaxFrameDeadlineMs.
  std::uint32_t timeout_ms = 0;
  /// JSONL request log path ("" disables): one line per request with
  /// request id, op, graph key, status, latency and engine work.
  std::string request_log;
  /// Frame cap for incoming requests (tests shrink it).
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
};

/// Monotonic server counters (also exported via the kStats op).
struct ServerStats {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> bad_requests{0};
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();  ///< stops and joins if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept thread. Throws qc::Error when
  /// the endpoint cannot be bound.
  void start();

  /// Blocks until a kShutdown request arrives or request_stop() is called.
  void wait();

  /// Asks wait() to return; safe to call from any thread (not a signal
  /// handler — the daemon routes signals through a pipe first).
  void request_stop();

  /// Closes the listener and every connection, joins all threads, drains
  /// the worker pool. Idempotent.
  void stop();

  /// Endpoint actually bound: "unix:PATH" or "127.0.0.1:PORT".
  std::string endpoint() const;
  /// Bound TCP port (0 in Unix-socket mode).
  std::uint16_t port() const { return bound_port_; }

  const ServerStats& stats() const { return stats_; }
  GraphRegistry& registry() { return registry_; }

  /// Executes one request synchronously against the registry — the same
  /// switch the worker threads run, exposed so tests and the in-process
  /// bench can check bit-identity without a socket in the loop.
  Response execute(const Request& req);

 private:
  class RequestLog;

  void accept_loop();
  void handle_connection(int fd);
  Response dispatch(const Request& req);
  void log_request(std::uint64_t id, const Request& req,
                   const Response& resp, double latency_us,
                   std::uint64_t bfs_delta);

  ServerOptions opts_;
  GraphRegistry registry_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<RequestLog> log_;
  ServerStats stats_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread accept_thread_;

  // Live connections only: each handle_connection thread is detached and
  // deregisters its own fd on exit (so a long-running daemon never
  // accumulates dead fds or joinable threads); stop() force-shutdowns the
  // survivors and waits for active_conns_ to drain to zero.
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::vector<int> conn_fds_;
  std::size_t active_conns_ = 0;

  std::atomic<std::uint32_t> pending_{0};
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace qc::serve
