#include "congest/shard/sharded_network.hpp"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "congest/shard/worker.hpp"
#include "serve/protocol.hpp"
#include "util/bits.hpp"
#include "util/metrics.hpp"

namespace qc::congest::shard {

namespace {

/// Closes every fd of the freshly forked child except stdio and `keep`:
/// the child inherits the parent's whole fd table (other workers'
/// coordinator-side sockets, listening sockets, open logs...), and a held
/// duplicate of another worker's socket would defeat EOF-based teardown.
/// Memory-mapped graph payloads stay valid — a mapping outlives its fd.
void close_other_fds(int keep) {
  std::vector<int> to_close;
  if (DIR* d = ::opendir("/proc/self/fd")) {
    const int dir_fd = ::dirfd(d);
    while (const dirent* ent = ::readdir(d)) {
      char* end = nullptr;
      const long fd = std::strtol(ent->d_name, &end, 10);
      if (end == ent->d_name || *end != '\0') continue;  // "." / ".."
      if (fd <= 2 || fd == keep || fd == dir_fd) continue;
      to_close.push_back(static_cast<int>(fd));
    }
    ::closedir(d);
  } else {
    for (int fd = 3; fd < 1024; ++fd) {
      if (fd != keep) to_close.push_back(fd);
    }
  }
  for (const int fd : to_close) ::close(fd);
}

/// Sums worker round deltas the way the in-process engine merges per-range
/// stats: counters add, maxima combine by max. Deliberately
/// not RunStats::operator+= (which also adds `rounds` and overwrites
/// `quiesced`; the coordinator owns both of those).
void merge_worker_stats(RunStats& into, const RunStats& d) {
  into.messages += d.messages;
  into.bits += d.bits;
  into.max_edge_bits = std::max(into.max_edge_bits, d.max_edge_bits);
  into.violations += d.violations;
  into.max_node_memory_bits =
      std::max(into.max_node_memory_bits, d.max_node_memory_bits);
  into.messages_dropped += d.messages_dropped;
  into.messages_corrupted += d.messages_corrupted;
  into.crashed_node_rounds += d.crashed_node_rounds;
}

}  // namespace

ShardedNetwork::ShardedNetwork(const graph::Graph& g, ShardConfig cfg)
    : graph_(&g), cfg_(std::move(cfg)) {
  bandwidth_bits_ = cfg_.net.bandwidth_bits != 0
                        ? cfg_.net.bandwidth_bits
                        : qc::congest_bandwidth_bits(g.n());
  asn_ = make_assignment(g.n(), cfg_.shards);
  replicas_.resize(g.n());
}

ShardedNetwork::~ShardedNetwork() { teardown(/*graceful=*/!broken_); }

std::vector<pid_t> ShardedNetwork::worker_pids() const {
  std::vector<pid_t> pids;
  pids.reserve(workers_.size());
  for (const auto& w : workers_) pids.push_back(w.pid);
  return pids;
}

void ShardedNetwork::init_programs(const ProgramFactory& make) {
  teardown(/*graceful=*/!broken_);
  factory_ = make;
  for (NodeId v = 0; v < n(); ++v) {
    replicas_[v] = make(v);
    require(replicas_[v] != nullptr,
            "ShardedNetwork::init_programs: factory returned null");
  }
  round_ = 0;
  stats_ = RunStats{};
  perf_ = ShardPerfCounters{};
  started_ = false;
  broken_ = false;
  needs_harvest_ = false;  // replicas hold pristine initial state
  memory_audit_ = true;
  interrupted_ = false;
  spawn_workers();
}

void ShardedNetwork::spawn_workers() {
  const bool collect_events = cfg_.net.observer != nullptr;
  const std::uint32_t W = asn_.shards;
  workers_.assign(W, Worker{});
  // Every reused frame buffer is reserved to the CONGEST bound for this
  // assignment, so the round loop never grows one.
  const auto offsets = graph_->csr_offsets();
  rx_.assign(W, {});
  harvest_rx_.assign(W, {});
  groups_.assign(static_cast<std::size_t>(W) * W, {});
  parts_.resize(W + 1);
  polls_.resize(W);
  std::size_t max_events = 0;
  for (std::uint32_t s = 0; s < W; ++s) {
    // At most one observer event per owned in-arc.
    const std::size_t events =
        collect_events ? offsets[asn_.end(s)] - offsets[asn_.begin(s)] : 0;
    rx_[s].reserve(round_end_bound(boundary_arcs(*graph_, asn_, s).size(), W,
                                   events));
    max_events = std::max(max_events, events);
  }
  re_.events.reserve(max_events);
  // Any buffered stdio the child inherits would be flushed twice (once per
  // process); drain it while there is still only one process.
  std::fflush(nullptr);
  for (std::uint32_t s = 0; s < W; ++s) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      const std::string err = std::strerror(errno);
      teardown(/*graceful=*/false);
      throw Error("ShardedNetwork: socketpair failed: " + err);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const std::string err = std::strerror(errno);
      ::close(sv[0]);
      ::close(sv[1]);
      teardown(/*graceful=*/false);
      throw Error("ShardedNetwork: fork failed: " + err);
    }
    if (pid == 0) {
      // Worker process. Drop the inherited fd table (including earlier
      // workers' coordinator ends) and the inherited metrics registry —
      // the coordinator reports shard metrics; a worker reporting into a
      // fork-shared registry would double-count and the export would be
      // lost at _exit anyway.
      close_other_fds(sv[1]);
      metrics::set_global(nullptr);
      WorkerLink link;
      link.fd = sv[1];
      link.shard = s;
      link.collect_events = collect_events;
      link.verify_zero_alloc_from_round = cfg_.verify_zero_alloc_from_round;
      const int rc = run_worker(link, *graph_, cfg_.net, asn_, factory_);
      // _exit, not exit: the child must not run the parent's atexit
      // handlers (leak-check finalizers, stdio flushes of inherited
      // buffers) — the same discipline as qcongestd's test forks.
      ::_exit(rc);
    }
    ::close(sv[1]);
    workers_[s].pid = pid;
    workers_[s].fd = sv[0];
  }
  spawned_ = true;
  metrics::count("shard.spawns", W);
  metrics::gauge("shard.workers", static_cast<double>(W));
}

std::string ShardedNetwork::teardown(bool graceful) {
  std::string problems;
  if (graceful) {
    const auto bye = encode_empty(ShardOp::kShutdown);
    for (const auto& w : workers_) {
      if (w.fd < 0) continue;
      // If the write fails, the fd close below still surfaces as EOF.
      try {
        serve::write_frame(w.fd, bye, kMaxShardFrameBytes);
      } catch (...) {  // a dead worker is reported via its exit status
      }
    }
  }
  for (auto& w : workers_) {
    if (w.fd >= 0) {
      ::close(w.fd);  // EOF tells a healthy worker to exit 0
      w.fd = -1;
    }
  }
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    auto& w = workers_[s];
    if (w.pid <= 0) continue;
    if (!graceful) ::kill(w.pid, SIGKILL);
    int st = 0;
    bool reaped = false;
    // Workers exit promptly on shutdown/EOF; poll briefly, then escalate
    // so a wedged worker can never hang the coordinator.
    for (int i = 0; i < 5000; ++i) {
      const pid_t r = ::waitpid(w.pid, &st, WNOHANG);
      if (r == w.pid || (r < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      ::usleep(1000);
    }
    if (!reaped) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, &st, 0);
      problems += "worker " + std::to_string(s) + " had to be SIGKILLed; ";
    } else if (graceful && !(WIFEXITED(st) && WEXITSTATUS(st) == 0)) {
      problems += "worker " + std::to_string(s) +
                  (WIFSIGNALED(st)
                       ? " died on signal " + std::to_string(WTERMSIG(st))
                       : " exited with status " +
                             std::to_string(WIFEXITED(st) ? WEXITSTATUS(st)
                                                          : -1)) +
                  "; ";
    }
    w.pid = -1;
  }
  spawned_ = false;
  return problems;
}

void ShardedNetwork::shutdown() {
  if (!spawned_) return;
  const std::string problems = teardown(/*graceful=*/!broken_);
  if (!problems.empty()) {
    throw Error("ShardedNetwork::shutdown: " + problems);
  }
}

void ShardedNetwork::fail(std::size_t w, const std::string& what) {
  broken_ = true;
  teardown(/*graceful=*/false);
  throw Error("shard: worker " + std::to_string(w) + " " + what);
}

void ShardedNetwork::send_frame(
    std::size_t w, std::span<const std::span<const std::uint8_t>> parts) {
  try {
    serve::write_frame(workers_[w].fd, parts, kMaxShardFrameBytes);
  } catch (const std::exception& e) {
    fail(w, std::string("is unreachable (crashed?): ") + e.what());
  }
}

void ShardedNetwork::send_all(ShardOp op) {
  const auto payload = encode_empty(op);
  const std::span<const std::uint8_t> part(payload);
  for (std::size_t w = 0; w < workers_.size(); ++w) send_frame(w, {&part, 1});
}

void ShardedNetwork::dispatch(std::size_t w, Collect what) {
  const std::span<BoundaryGroup> groups(&groups_[w * asn_.shards],
                                        asn_.shards);
  switch (what) {
    case Collect::kRoundEnd: {
      decode_round_end_into(rx_[w], re_, groups);
      if (re_.round != round_) fail(w, "answered for the wrong round");
      merge_worker_stats(round_stats_, re_.stats);
      workers_[w].inflight = re_.inflight;
      workers_[w].halted = re_.halted;
      workers_[w].wakes = re_.wakes;
      events_merged_ += re_.events.size();
      // Each worker's batch is ascending in (receiver, port) — a worker
      // delivers its range in id order — and worker s's range lies wholly
      // below worker s+1's, so replaying the batches in shard order gives
      // the sequential engine's (round, receiver, port) order exactly.
      if (DeliveryObserver* const obs = cfg_.net.observer.get()) {
        for (const DeliveryEvent& e : re_.events) {
          obs->on_deliver(e.from, e.to, e.msg, round_);
        }
      }
      break;
    }
    case Collect::kStartDone: {
      StartDoneFrame f;
      decode_start_done_into(rx_[w], f, groups);
      workers_[w].inflight = f.inflight;
      workers_[w].halted = f.halted;
      workers_[w].wakes = f.wakes;
      break;
    }
    case Collect::kHarvestDone: {
      const auto states = decode_harvest_done(harvest_rx_[w]);
      const auto s = static_cast<std::uint32_t>(w);
      if (states.size() != asn_.owned_count(s)) {
        fail(w, "harvested the wrong number of programs");
      }
      for (std::size_t i = 0; i < states.size(); ++i) {
        replicas_[asn_.begin(s) + i]->restore_state(states[i]);
      }
      break;
    }
  }
}

void ShardedNetwork::collect_all(Collect what) {
  // Every worker read its whole request before replying and the
  // coordinator wrote every request before reading, so blocking reads of
  // whichever sockets poll() reports ready cannot deadlock.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    polls_[w] = pollfd{workers_[w].fd, POLLIN, 0};
  }
  std::size_t pending = workers_.size();
  while (pending > 0) {
    if (::poll(polls_.data(), polls_.size(), -1) < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      broken_ = true;
      teardown(/*graceful=*/false);
      throw Error("shard: poll failed at the round barrier: " + err);
    }
    for (std::size_t w = 0; w < polls_.size(); ++w) {
      if (polls_[w].fd < 0 || polls_[w].revents == 0) continue;
      // POLLIN means a frame; EOF or POLLHUP without one means the worker
      // is gone.
      // A harvest reads into its own buffers: the boundary groups awaiting
      // relay still point into rx_.
      auto& rx = what == Collect::kHarvestDone ? harvest_rx_[w] : rx_[w];
      bool ok = false;
      try {
        ok = serve::read_frame(workers_[w].fd, rx, kMaxShardFrameBytes);
        if (ok && decode_op(rx) == ShardOp::kError) {
          fail(w, "failed: " + decode_error(rx));
        }
      } catch (const serve::ProtocolError& e) {
        fail(w, std::string("sent a malformed frame: ") + e.what());
      }
      if (!ok) fail(w, "exited mid-run (crashed?)");
      polls_[w].fd = -1;  // poll() skips negative fds
      --pending;
    }
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    try {
      dispatch(w, what);
    } catch (const serve::ProtocolError& e) {
      fail(w, std::string("sent a malformed frame: ") + e.what());
    }
  }
}

bool ShardedNetwork::all_quiet() const {
  std::int64_t inflight = 0;
  std::int64_t halted = 0;
  std::int64_t wakes = 0;
  for (const auto& w : workers_) {
    inflight += w.inflight;
    halted += w.halted;
    wakes += w.wakes;
  }
  // Per-worker counters can individually go negative (a worker that mostly
  // receives decrements more than it increments), but the sums track the
  // single-process counters exactly: every queued message is counted +1 by
  // its sender's worker and -1 by its receiver's worker.
  return halted == static_cast<std::int64_t>(n()) && inflight == 0 &&
         wakes == 0;
}

void ShardedNetwork::start_if_needed() {
  if (started_) return;
  send_all(ShardOp::kStart);
  collect_all(Collect::kStartDone);
  started_ = true;
}

RunStats ShardedNetwork::run_phase(std::uint32_t max_rounds, bool until_quiet) {
  require(spawned_,
          "ShardedNetwork::run: init_programs was not called (or the "
          "network was shut down)");
  require(!broken_,
          "ShardedNetwork::run: a worker failed earlier; call init_programs "
          "to respawn");
  metrics::ScopedTimer span("shard.phase");
  start_if_needed();
  RunStats phase;
  const ShardPerfCounters before = perf_;
  events_merged_ = 0;
  std::uint32_t executed = 0;
  const bool have_observer = cfg_.net.observer != nullptr;
  while (executed < max_rounds && !(until_quiet && all_quiet())) {
    if (cfg_.stop != nullptr &&
        cfg_.stop->load(std::memory_order_relaxed)) {
      interrupted_ = true;
      break;
    }
    ++round_;
    rb_.round = round_;
    rb_.memory_audit = memory_audit_;
    // The in-process engine polls every node in a phase's first round and
    // afterwards only the nodes that ran; workers do the same on request.
    rb_.memory_sweep_all = executed == 0;
    // Write round_begin to EVERY worker before reading ANY round_end:
    // waiting for worker 0's reply before worker 1 has its round_begin
    // serializes the cluster behind whichever worker happens to be slow
    // (regression-tested with a deliberately delayed worker). Each frame
    // is one gather write of a header and the entry bytes of every group
    // addressed to that worker last round, source shards ascending.
    const std::uint32_t W = asn_.shards;
    for (std::uint32_t t = 0; t < W; ++t) {
      std::uint32_t count = 0;
      std::size_t parts = 1;
      for (std::uint32_t s = 0; s < W; ++s) {
        const BoundaryGroup& g = groups_[std::size_t{s} * W + t];
        if (g.count == 0) continue;
        count += g.count;
        perf_.boundary_bytes += g.entries.size();
        parts_[parts++] = g.entries;
      }
      perf_.boundary_messages += count;
      const RoundBeginHeader header = encode_round_begin(rb_, count);
      parts_[0] = header;
      send_frame(t, {parts_.data(), parts});
    }
    const auto barrier_t0 = std::chrono::steady_clock::now();
    round_stats_ = RunStats{};
    collect_all(Collect::kRoundEnd);
    const std::uint64_t wait_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - barrier_t0)
            .count());
    perf_.barrier_wait_us += wait_us;
    if (!have_observer) {
      // Workers never built or shipped these events; every delivered
      // message this round is one elided observer event.
      perf_.events_elided += round_stats_.messages;
    }
    // The disarm-after-round-1 rule of the in-process engine, decided
    // globally: workers sweep only their owned programs, so only the
    // merged round-1 maximum can tell whether anyone audits memory.
    if (memory_audit_ && round_ == 1 &&
        round_stats_.max_node_memory_bits == 0) {
      memory_audit_ = false;
    }
    merge_worker_stats(phase, round_stats_);
    ++executed;
    if (metrics::enabled()) {
      metrics::observe("shard.barrier_wait_us",
                       static_cast<double>(wait_us));
    }
  }
  phase.rounds = executed;
  phase.quiesced = all_quiet();
  stats_ += phase;
  perf_.rounds += executed;
  needs_harvest_ = true;
  span.add(phase.rounds, phase.messages, phase.bits);
  if (metrics::enabled()) {
    metrics::count("shard.phases");
    metrics::count("shard.rounds", phase.rounds);
    metrics::count("shard.boundary_messages",
                   perf_.boundary_messages - before.boundary_messages);
    metrics::count("shard.boundary_bytes",
                   perf_.boundary_bytes - before.boundary_bytes);
    metrics::count("shard.observer_events_merged", events_merged_);
    metrics::count("shard.events_elided",
                   perf_.events_elided - before.events_elided);
  }
  return phase;
}

RunStats ShardedNetwork::run_rounds(std::uint32_t rounds) {
  return run_phase(rounds, /*until_quiet=*/false);
}

RunStats ShardedNetwork::run_until_quiescent(std::uint32_t max_rounds) {
  return run_phase(max_rounds, /*until_quiet=*/true);
}

void ShardedNetwork::sync_programs() {
  if (!needs_harvest_) return;
  require(spawned_ && !broken_,
          "ShardedNetwork::program: workers are gone; results from the last "
          "run are unavailable (read them before shutdown)");
  send_all(ShardOp::kHarvest);
  collect_all(Collect::kHarvestDone);
  metrics::count("shard.harvests");
  needs_harvest_ = false;
}

NodeProgram& ShardedNetwork::program(NodeId v) {
  require(v < n() && replicas_[v] != nullptr,
          "ShardedNetwork::program: no program");
  sync_programs();
  return *replicas_[v];
}

}  // namespace qc::congest::shard
