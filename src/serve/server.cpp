#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "graph/algorithms.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define QC_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define QC_HAVE_SOCKETS 0
#endif

namespace qc::serve {

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escaping for the request log (paths can contain
/// quotes/backslashes; control characters are dropped to \u form).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

/// Append-only JSONL request log; one flushed line per request so a
/// crashed daemon loses at most the line being written.
class Server::RequestLog {
 public:
  explicit RequestLog(const std::string& path) : out_(path, std::ios::app) {
    require(out_.good(), "serve: cannot open request log " + path);
  }

  void write(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    out_ << line << "\n";
    out_.flush();
  }

 private:
  std::mutex mu_;
  std::ofstream out_;
};

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  require(opts_.max_pending >= 1, "serve: max_pending must be >= 1");
  pool_ = std::make_unique<ThreadPool>(opts_.num_threads);
  if (!opts_.request_log.empty()) {
    log_ = std::make_unique<RequestLog>(opts_.request_log);
  }
}

Server::~Server() { stop(); }

std::string Server::endpoint() const {
  if (!opts_.unix_path.empty()) return "unix:" + opts_.unix_path;
  return "127.0.0.1:" + std::to_string(bound_port_);
}

#if QC_HAVE_SOCKETS

void Server::start() {
  require(!started_, "serve: start() called twice");
  // A client that disconnects before its reply is written must surface as
  // EPIPE from write_frame, never as a fatal SIGPIPE. write_frame already
  // passes MSG_NOSIGNAL where it exists; ignoring the signal here covers
  // platforms without it (macOS) and any other socket write in the
  // process serving requests.
  std::signal(SIGPIPE, SIG_IGN);
  if (!opts_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    require(listen_fd_ >= 0, "serve: cannot create unix socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    require(opts_.unix_path.size() < sizeof(addr.sun_path),
            "serve: unix socket path too long: " + opts_.unix_path);
    std::strncpy(addr.sun_path, opts_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A stale socket file from a crashed daemon would make bind fail;
    // remove it first (a live daemon would still hold the listen socket,
    // and its clients, not the file, are what matter).
    ::unlink(opts_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw Error("serve: cannot bind " + opts_.unix_path + ": " +
                  std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    require(listen_fd_ >= 0, "serve: cannot create tcp socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts_.tcp_port);
    // Loopback only: qcongestd is a local query service, never exposed on
    // external interfaces.
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw Error("serve: cannot bind 127.0.0.1:" +
                  std::to_string(opts_.tcp_port) + ": " +
                  std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    require(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                          &len) == 0,
            "serve: getsockname failed");
    bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve: listen failed: " + reason);
  }
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    // One thread per connection, so live connections are capped: the one
    // over the cap gets a single kRejected frame and is closed.
    const std::size_t cap =
        std::size_t{kConnectionsPerPending} * opts_.max_pending;
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (active_conns_ < cap) {
        conn_fds_.push_back(fd);
        ++active_conns_;
        admitted = true;
      }
    }
    if (!admitted) {
      stats_.rejected.fetch_add(1, std::memory_order_relaxed);
      try {
        write_frame(fd, encode_response(
                            {Status::kRejected, 0, 0,
                             "connection limit reached (" +
                                 std::to_string(cap) + " open)"}));
      } catch (const Error&) {
      }
      ::close(fd);
      continue;
    }
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    metrics::count("serve.connections");
    // Detached: the thread deregisters itself when the connection ends
    // (joining would accumulate one joinable thread per past connection).
    // stop() still waits for every connection via active_conns_, so no
    // detached thread can outlive the Server.
    std::thread([this, fd] { handle_connection(fd); }).detach();
  }
}

void Server::handle_connection(int fd) {
  std::vector<std::uint8_t> payload;
  const std::uint32_t frame_deadline_ms =
      opts_.timeout_ms != 0 ? std::min(opts_.timeout_ms, kMaxFrameDeadlineMs)
                            : kMaxFrameDeadlineMs;
  for (;;) {
    Request req;
    bool decoded = false;
    try {
      if (!read_frame(fd, payload, opts_.max_frame_bytes,
                      frame_deadline_ms)) {
        break;  // EOF
      }
      req = decode_request(payload);
      decoded = true;
    } catch (const ProtocolError& e) {
      // Malformed, or stalled past its deadline, frame or payload: answer
      // kBadRequest (best effort) and drop the connection — after a
      // framing error the stream position is unreliable, so
      // resynchronization is not possible.
      stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
      metrics::count("serve.bad_requests");
      try {
        write_frame(fd, encode_response(
                            {Status::kBadRequest, 0, 0, e.what()}));
      } catch (const Error&) {
      }
      break;
    }
    if (!decoded) break;
    Response resp = dispatch(req);
    const bool was_shutdown =
        req.op == Op::kShutdown && resp.status == Status::kOk;
    try {
      write_frame(fd, encode_response(resp));
    } catch (const Error&) {
      break;  // peer went away mid-reply
    }
    if (was_shutdown) {
      request_stop();
      break;
    }
  }
  ::shutdown(fd, SHUT_RDWR);
  // Deregister-then-close under the lock: stop() must never shut down an
  // fd number the kernel has already recycled for a newer connection.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
    ::close(fd);
    --active_conns_;
    // Notify under the lock: stop()'s waiter may destroy this Server the
    // moment it sees active_conns_ == 0, so the cv must not be touched
    // after conn_mu_ is released.
    conn_cv_.notify_all();
  }
}

#else  // !QC_HAVE_SOCKETS

void Server::start() {
  throw Error("serve: sockets are not available on this platform");
}
void Server::accept_loop() {}
void Server::handle_connection(int) {}

#endif

Response Server::dispatch(const Request& req) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  const double start_us = now_us();

  // Control ops do no graph work and are answered inline, outside the
  // admission queue and the deadline — a saturated daemon must still
  // answer ping and, above all, obey shutdown instead of rejecting it.
  if (req.op == Op::kPing || req.op == Op::kShutdown) {
    Response resp = execute(req);
    const double latency_us = now_us() - start_us;
    stats_.ok.fetch_add(1, std::memory_order_relaxed);
    metrics::count("serve.requests", 1, op_name(req.op));
    metrics::observe("serve.latency_us", latency_us);
    log_request(id, req, resp, latency_us, 0);
    return resp;
  }

  // Bounded admission: never queue more than max_pending requests. The
  // increment is optimistic; over-admitted requests back out immediately.
  if (pending_.fetch_add(1, std::memory_order_acq_rel) >=
      opts_.max_pending) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    metrics::count("serve.requests", 1, "rejected");
    Response resp{Status::kRejected, 0, 0,
                  "admission queue full (max_pending=" +
                      std::to_string(opts_.max_pending) + ")"};
    log_request(id, req, resp, now_us() - start_us, 0);
    return resp;
  }

  // Hand the op to the worker pool and wait with a deadline. The shared
  // state outlives both sides; on timeout the reader abandons it and the
  // worker's late result is dropped on the floor.
  struct Pending {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
    Response resp;
    std::uint64_t bfs_delta = 0;
  };
  auto state = std::make_shared<Pending>();
  pool_->submit([this, req, state] {
    Response r;
    std::uint64_t bfs_delta = 0;
    try {
      const auto resident = registry_.get(req.path);
      const std::uint64_t bfs_before =
          resident ? resident->engine().bfs_runs() : 0;
      r = execute(req);
      if (resident) bfs_delta = resident->engine().bfs_runs() - bfs_before;
    } catch (const std::exception& e) {
      r = Response{Status::kError, 0, 0, e.what()};
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->abandoned) return;
    state->resp = std::move(r);
    state->bfs_delta = bfs_delta;
    state->done = true;
    state->cv.notify_all();
  });

  Response resp;
  std::uint64_t bfs_delta = 0;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    const auto done = [&state] { return state->done; };
    if (opts_.timeout_ms == 0) {
      state->cv.wait(lock, done);
    } else if (!state->cv.wait_for(
                   lock, std::chrono::milliseconds(opts_.timeout_ms),
                   done)) {
      state->abandoned = true;
      stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
      metrics::count("serve.requests", 1, "timeout");
      resp = Response{Status::kTimeout, 0, 0,
                      "deadline of " + std::to_string(opts_.timeout_ms) +
                          " ms exceeded"};
      log_request(id, req, resp, now_us() - start_us, 0);
      return resp;
    }
    resp = std::move(state->resp);
    bfs_delta = state->bfs_delta;
  }

  const double latency_us = now_us() - start_us;
  if (resp.status == Status::kOk) {
    stats_.ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
  }
  metrics::count("serve.requests", 1, op_name(req.op));
  metrics::observe("serve.latency_us", latency_us);
  log_request(id, req, resp, latency_us, bfs_delta);
  return resp;
}

Response Server::execute(const Request& req) {
  metrics::ScopedTimer span(std::string("serve.") + op_name(req.op));
  try {
    switch (req.op) {
      case Op::kPing:
        return {Status::kOk, req.arg, 0, "pong"};

      case Op::kLoad: {
        const auto resident = registry_.load(req.path);
        return {Status::kOk, resident->graph().n(), resident->graph().m(),
                resident->format()};
      }

      case Op::kUnload:
        if (!registry_.unload(req.path)) {
          return {Status::kError, 0, 0,
                  "graph not resident: " + req.path};
        }
        return {Status::kOk, 0, 0, ""};

      case Op::kStats: {
        std::string json = "{\"connections\":" +
                           std::to_string(stats_.connections.load()) +
                           ",\"requests\":" +
                           std::to_string(stats_.requests.load()) +
                           ",\"ok\":" + std::to_string(stats_.ok.load()) +
                           ",\"errors\":" +
                           std::to_string(stats_.errors.load()) +
                           ",\"rejected\":" +
                           std::to_string(stats_.rejected.load()) +
                           ",\"timeouts\":" +
                           std::to_string(stats_.timeouts.load()) +
                           ",\"bad_requests\":" +
                           std::to_string(stats_.bad_requests.load()) +
                           ",\"resident\":[";
        const auto keys = registry_.keys();
        bool first = true;
        for (const auto& key : keys) {
          if (!first) json += ',';
          json += '"';
          json += json_escape(key);
          json += '"';
          first = false;
        }
        json += "]}";
        return {Status::kOk, keys.size(), registry_.loads_performed(),
                json};
      }

      case Op::kShutdown:
        return {Status::kOk, 0, 0, "shutting down"};

      default:
        break;  // graph-scoped ops handled below
    }

    // Every remaining op addresses a resident graph by key; `load` is the
    // only op that touches the filesystem.
    const auto resident = registry_.get(req.path);
    if (resident == nullptr) {
      return {Status::kError, 0, 0,
              "graph not resident (load it first): " + req.path};
    }
    const auto& g = resident->graph();
    const auto& engine = resident->engine();

    switch (req.op) {
      case Op::kGraphInfo:
        return {Status::kOk, g.n(), g.m(),
                "{\"format\":\"" + resident->format() +
                    "\",\"load_ms\":" + std::to_string(resident->load_ms()) +
                    ",\"bfs_runs\":" + std::to_string(engine.bfs_runs()) +
                    "}"};

      case Op::kDiameter:
        return {Status::kOk, engine.diameter(), 0, ""};

      case Op::kApprox: {
        // Double-sweep bounds without forcing the full eccentricity
        // table: BFS from `arg` (default 0), then from the farthest
        // vertex found. lb <= D <= 2*lb on connected graphs. When the
        // table is already there, ecc(far) is read from it instead of the
        // second BFS; on a disconnected graph the table holds only
        // kUnreachable while the sweep is component-local, so the BFS
        // still answers there.
        const graph::NodeId root =
            req.arg < g.n() ? static_cast<graph::NodeId>(req.arg) : 0;
        const auto first = graph::bfs(g, root);
        graph::NodeId far = root;
        std::uint32_t far_d = 0;
        for (graph::NodeId v = 0; v < g.n(); ++v) {
          if (first.dist[v] != graph::kUnreachable &&
              first.dist[v] > far_d) {
            far_d = first.dist[v];
            far = v;
          }
        }
        std::uint32_t far_ecc =
            engine.ready() ? engine.eccentricity(far) : graph::kUnreachable;
        if (far_ecc == graph::kUnreachable) far_ecc = graph::bfs(g, far).ecc;
        const std::uint32_t lb = std::max(first.ecc, far_ecc);
        return {Status::kOk, lb, 2ull * lb, ""};
      }

      case Op::kRadius:
        return {Status::kOk, engine.radius(), engine.center(), ""};

      case Op::kEcc:
        if (req.arg >= g.n()) {
          return {Status::kError, 0, 0,
                  "ecc: vertex " + std::to_string(req.arg) +
                      " out of range (n=" + std::to_string(g.n()) + ")"};
        }
        return {Status::kOk,
                engine.eccentricity(static_cast<graph::NodeId>(req.arg)), 0,
                ""};

      case Op::kGirth:
        return {Status::kOk, resident->girth(), 0, ""};

      default:
        return {Status::kBadRequest, 0, 0, "unhandled op"};
    }
  } catch (const std::exception& e) {
    // Op-level failures (unreadable file, malformed .qcg, disconnected
    // graph preconditions) answer kError; they never take the daemon down.
    return {Status::kError, 0, 0, e.what()};
  }
}

void Server::log_request(std::uint64_t id, const Request& req,
                         const Response& resp, double latency_us,
                         std::uint64_t bfs_delta) {
  if (log_ == nullptr) return;
  // Schema: one object per line; `rounds` is the CONGEST-model cost
  // attributed to the request (0 for the centralized engine answers —
  // kept so the schema is forward-compatible with distributed backends).
  std::string line =
      "{\"request_id\":" + std::to_string(id) + ",\"op\":\"" +
      op_name(req.op) + "\",\"graph\":\"" + json_escape(req.path) +
      "\",\"status\":\"" + status_name(resp.status) +
      "\",\"value\":" + std::to_string(resp.value) +
      ",\"latency_us\":" + std::to_string(latency_us) +
      ",\"bfs_runs\":" + std::to_string(bfs_delta) + ",\"rounds\":0}";
  log_->write(line);
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Server::request_stop() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void Server::stop() {
  if (!started_) return;
  stopping_.store(true);
#if QC_HAVE_SOCKETS
  // Closing the listener unblocks accept(); shutting down every live
  // connection unblocks its reader. Each connection thread then closes
  // and deregisters its own fd; waiting for active_conns_ == 0 is the
  // join, and guarantees no detached thread outlives this Server.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conn_cv_.wait(lock, [this] { return active_conns_ == 0; });
  }
  if (!opts_.unix_path.empty()) ::unlink(opts_.unix_path.c_str());
#endif
  pool_->wait_idle();
  started_ = false;
  request_stop();  // release any wait()er during teardown
}

}  // namespace qc::serve
