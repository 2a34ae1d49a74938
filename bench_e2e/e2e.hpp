#pragma once

// Shared pieces of the end-to-end benchmark: run options, the metric
// sinks a run fills, the benchmark's own span tracer, and the closed loop
// every workload times its ops with.
//
// Tracing rule: spans are recorded by the benchmark around each public
// call it makes into the library, never inside the library. qc::metrics
// (the library's own telemetry) is a separate thing and stays disarmed
// except where a workload or probe says otherwise.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// splitmix64 step: derives independent sub-seeds (per op, per client)
/// from the run seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Exact p-quantile (linear interpolation), p in [0, 1]; 0 when empty.
double quantile(std::vector<double> xs, double p);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// The tail latency of `xs`: the higher of p99 and p90 that has at least
/// ten samples beyond it, or the maximum below 100 samples. Higher
/// percentiles are left out on purpose: on a shared 4-vCPU host the
/// 11th-largest of ~10^5 serve latencies is scheduler noise that moved
/// 2.4-6.7 ms between identical runs.
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> xs);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: perturb every reference answer so that each checked
  /// op must count as failed.
  bool wrong_reference = false;
  std::string git_sha = "unknown";
  /// Directory for run-time files (unix sockets, metrics exports, span
  /// dumps), relative to the checkout root; run.py builds there too.
  std::string scratch = ".bench_build";
};

/// Ordered name -> (value, unit) map printed as the result's "metrics".
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string json() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

/// Everything one run reports.
class RunResult {
 public:
  /// Counts one checked op; a wrong answer is recorded, never skipped.
  void record(bool ok, std::string_view what);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  std::vector<std::string> failures() const;

  MetricSet e2e;     ///< end-to-end metrics (printed with --trace 0)
  MetricSet layer;   ///< per-layer metrics (printed with --trace 1)
  /// Every end-to-end quantity that applies to the workload, including
  /// the ones the final line cannot carry (model_rounds, sim_msgs_per_s,
  /// fail_ratio, the tail's percentile and sample count).
  MetricSet report;

 private:
  // Counted without a lock: record() sits inside timed serve ops.
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> failures_;  ///< first few reasons, for stderr
};

/// One recorded span. `op` groups the spans of one workload op (0 for
/// probe spans); `parent` is 0 for an op's root span.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::string name;
  double start_ms = 0;
  double dur_ms = 0;
};

/// In-memory span store, written out once at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  std::vector<SpanRecord> spans() const;
  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  friend class Span;
  /// Records an open span and returns its id. `op` = 0 starts a new op;
  /// the op id used is written back through `op`.
  std::uint64_t open(std::string_view name, std::uint64_t parent,
                     std::uint64_t& op, Clock::time_point start);
  void close(std::uint64_t id, double dur_ms);

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_op_ = 1;
};

/// RAII span. A root span (`root` = true) starts a new op and records when
/// the tracer is enabled and `record` holds; any other span records only
/// while this thread has a recording span open, and becomes its child.
/// Root spans always time themselves (end() returns the duration), so the
/// op loop reads latencies from them whether or not tracing is on.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, bool root = false,
       bool record = true);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in ms; 0 for
  /// a non-root span that is not recording.
  double end();

 private:
  Tracer* tracer_ = nullptr;
  bool timed_ = false;
  bool recording_ = false;
  bool open_ = true;
  std::uint64_t id_ = 0;
  Clock::time_point start_;
  // The thread's span context before this span opened, restored on end().
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_op_ = 0;
  bool saved_recording_ = false;
  double dur_ms_ = 0;
};

/// Per-op latencies of a closed loop. With tracing on, they are also split
/// by whether the op recorded spans.
struct LoopStats {
  std::vector<double> ms;           ///< every op, in completion order
  std::vector<double> traced_ms;    ///< traced runs: ops that recorded spans
  std::vector<double> untraced_ms;  ///< traced runs: ops that did not
  double wall_s = 0;                ///< time the loop ran, minus between()

  /// Adds a loop that ran at the same time as this one (another client).
  void merge(const LoopStats& other);
};

/// Runs `op(i)` back to back until `seconds` have elapsed (at least
/// `min_ops` times), each inside a root span named "op"; `between()` runs
/// before each op, outside its span. With tracing enabled, even-numbered
/// ops record spans and odd-numbered ones do not, so one run measures the
/// tracing overhead against itself.
template <typename F, typename G>
LoopStats closed_loop(Tracer& tracer, double seconds, std::uint64_t min_ops,
                      F&& op, G&& between) {
  LoopStats s;
  // Reserved address space is not resident until written, so peak RSS
  // grows with the ops actually run, without reallocation copies.
  s.ms.reserve(1u << 20);
  const auto t0 = Clock::now();
  double between_ms = 0;
  for (std::uint64_t i = 0; i < min_ops || ms_since(t0) < seconds * 1e3;
       ++i) {
    const auto b0 = Clock::now();
    between();
    between_ms += ms_since(b0);
    const bool traced = tracer.enabled() && i % 2 == 0;
    Span span(tracer, "op", /*root=*/true, traced);
    op(i);
    const double ms = span.end();
    s.ms.push_back(ms);
    if (tracer.enabled()) (traced ? s.traced_ms : s.untraced_ms).push_back(ms);
  }
  s.wall_s = (ms_since(t0) - between_ms) / 1e3;
  return s;
}

template <typename F>
LoopStats closed_loop(Tracer& tracer, double seconds, std::uint64_t min_ops,
                      F&& op) {
  return closed_loop(tracer, seconds, min_ops, std::forward<F>(op), [] {});
}

/// Set-up time samples of one run; setup_s is their median.
class SetupClock {
 public:
  /// Runs `setup` and keeps its wall time as a sample.
  template <typename F>
  void time(F&& setup) {
    const auto t0 = Clock::now();
    setup();
    samples_s_.push_back(ms_since(t0) / 1e3);
  }
  double median_s() const { return median(samples_s_); }

 private:
  std::vector<double> samples_s_;
};

/// Fills the end-to-end metrics every workload reports from its set-up
/// time and op loop: setup_s, op_p50_ms, op_tail_ms, ops_per_s,
/// peak_rss_mb; plus the op count and the tail's percentile and sample
/// count in the side report.
void report_loop(RunResult& res, double setup_s, const LoopStats& loop);

/// Fills the trace.* per-layer metrics from the spans of the workload's
/// traced ops: the share of op time their child spans cover (over all ops,
/// and at the 1st percentile of ops, which shows preempted outliers), the
/// uncovered self time, and the tracing overhead (traced minus untraced
/// op p50).
void report_trace(RunResult& res, const Tracer& tracer,
                  const LoopStats& loop);

}  // namespace e2e
