#pragma once

// qc::metrics — opt-in observability for the whole stack.
//
// The paper's only cost metric is round/bit complexity; the repo grew three
// disjoint views of it (congest::RunStats, per-report fields, ad-hoc bench
// prints). This registry unifies them into one machine-readable stream:
//
//  * counters   — monotonically increasing uint64, optionally labeled
//                 (e.g. "algos.phase_status" labeled "bfs_tree/quiesced"),
//  * gauges     — last-write-wins doubles (workload parameters),
//  * histograms — fixed-bucket distributions (per-round delivery counts,
//                 per-message bandwidth occupancy),
//  * spans      — hierarchical timed phases carrying the *model-level*
//                 costs next to the wall time: CONGEST rounds, messages
//                 and bits attributed to that phase.
//
// Enablement contract: the registry is DISABLED by default. Every
// instrumentation site goes through the free functions below (or
// ScopedTimer), which first do one relaxed atomic load of the global
// registry pointer; when it is null they return immediately — no locks, no
// allocations, no behavioral difference. All algorithm reports, RunStats
// and the distributed executions are bit-identical with metrics on or off
// (the registry only observes; it never feeds back), which
// tests/test_metrics.cpp asserts.
//
// Model-level costs (rounds/bits — paper-faithful) and implementation-level
// telemetry (wall time) are both captured but never mixed: spans carry them
// in separate fields. See docs/observability.md.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qc::metrics {

/// Version of the JSONL export schema. Bump on any change to the per-type
/// key sets; tests/test_metrics.cpp pins the key sets for this version.
inline constexpr std::uint32_t kSchemaVersion = 1;

/// One exported span: a named phase with hierarchy (parent span id, 0 =
/// top level), wall time, and the model-level costs attributed to it.
struct SpanSample {
  std::uint64_t id = 0;      ///< 1-based, unique per registry
  std::uint64_t parent = 0;  ///< 0 when the span has no enclosing span
  std::string name;
  std::uint64_t start_ns = 0;     ///< relative to registry construction
  std::uint64_t duration_ns = 0;  ///< 0 while still open
  std::uint64_t rounds = 0;       ///< CONGEST rounds attributed to the span
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  bool complete = false;
};

/// Thread-safe metrics store. One instance per capture session; install it
/// with set_global() to arm the instrumentation sites, uninstall (or
/// destroy a ScopedExport) to write the JSONL out.
///
/// Fork contract: the registry is a single-process object — its export
/// runs once, in the process that installed it. A child process that
/// inherits an armed registry across fork() must call
/// set_global(nullptr) before doing any work (the shard workers in
/// src/congest/shard/ do exactly this), or the parent's capture would
/// double-count and the child's _exit path would race the buffers.
/// Model-level quantities observed in workers are instead reported over
/// the shard protocol and accounted once, coordinator-side, under the
/// shard.* names (docs/distributed.md).
class MetricsRegistry {
 public:
  MetricsRegistry();

  // -- counters / gauges ---------------------------------------------------
  void add_counter(std::string_view name, std::uint64_t delta = 1,
                   std::string_view label = {});
  void set_gauge(std::string_view name, double value,
                 std::string_view label = {});

  // -- histograms ----------------------------------------------------------
  /// Registers a histogram with the given ascending bucket upper bounds
  /// (an implicit +inf bucket is appended). Idempotent: re-registering an
  /// existing name keeps the first bounds.
  void register_histogram(std::string_view name,
                          std::vector<double> upper_bounds);
  /// Records one observation; auto-registers with power-of-two bounds
  /// (1, 2, 4, ..., 2^20) when the name is new.
  void observe(std::string_view name, double value);
  /// Records `count` observations of the same value under one lock — the
  /// flush path of callers that tally integer values locally. The sum
  /// grows by value * count, which is exact for integer values (below
  /// 2^53), so batching leaves the exported histogram unchanged.
  void observe(std::string_view name, double value, std::uint64_t count);

  // -- spans (use PhaseTimer / ScopedTimer rather than calling directly) --
  /// Opens a span; its parent is the innermost span this thread currently
  /// has open (or has adopted, see AdoptSpanParent) in this registry.
  /// Returns the span id.
  std::uint64_t begin_span(std::string_view name);
  /// Closes a span and attributes model-level costs to it.
  void end_span(std::uint64_t id, std::uint64_t rounds, std::uint64_t messages,
                std::uint64_t bits);

  // -- export / inspection -------------------------------------------------
  /// Writes the whole registry as JSON Lines: one meta line (schema
  /// version), then counters, gauges, histograms and spans, each with a
  /// fixed per-type key set. Deterministic order: counters/gauges sorted by
  /// (name, label), histograms by name, spans by id.
  void write_jsonl(std::ostream& os) const;
  /// write_jsonl to a file; throws qc::Error when the file cannot be
  /// written.
  void write_jsonl_file(const std::string& path) const;

  std::uint64_t counter_value(std::string_view name,
                              std::string_view label = {}) const;
  std::vector<SpanSample> spans() const;

 private:
  struct Counter {
    std::string name, label;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string name, label;
    double value = 0.0;
  };
  struct Histogram {
    std::string name;
    std::vector<double> bounds;         ///< ascending upper bounds
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow)
    std::uint64_t total = 0;
    double sum = 0.0;
  };

  std::uint64_t now_ns() const;
  Histogram& histogram_locked(std::string_view name);

  mutable std::mutex mu_;
  std::vector<Counter> counters_;
  std::vector<Gauge> gauges_;
  std::vector<Histogram> histograms_;
  std::vector<SpanSample> spans_;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t epoch_ns_ = 0;  ///< steady_clock at construction
};

/// The process-global registry; nullptr (disabled) by default.
MetricsRegistry* global();
/// Installs `reg` as the global registry (nullptr disables). The caller
/// keeps ownership and must keep it alive while installed.
void set_global(MetricsRegistry* reg);
/// True when a global registry is installed. Instrumentation sites that
/// need to build labels/values may guard on this to keep the disabled
/// path allocation-free.
bool enabled();

// Free functions against the global registry; all no-ops when disabled.
void count(std::string_view name, std::uint64_t delta = 1,
           std::string_view label = {});
void gauge(std::string_view name, double value, std::string_view label = {});
void observe(std::string_view name, double value);

/// The innermost span the calling thread has open in the global registry;
/// empty (reg == nullptr) when none is open or metrics are disabled.
struct SpanParent {
  MetricsRegistry* reg = nullptr;
  std::uint64_t id = 0;
};
SpanParent current_span();

/// Makes `parent` the innermost open span of the calling thread for this
/// object's lifetime, so the spans a task opens nest under the span that
/// launched it (capture current_span() before handing the task off).
/// Inert for an empty SpanParent.
class AdoptSpanParent {
 public:
  explicit AdoptSpanParent(SpanParent parent);
  ~AdoptSpanParent();
  AdoptSpanParent(const AdoptSpanParent&) = delete;
  AdoptSpanParent& operator=(const AdoptSpanParent&) = delete;

 private:
  SpanParent parent_;
};

/// A hierarchical timed phase against an explicit registry. Opens the span
/// on construction (inert when `reg` is null); closes it on finish() or
/// destruction, attributing whatever model-level costs were add()ed.
class PhaseTimer {
 public:
  PhaseTimer(MetricsRegistry* reg, std::string_view name);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Attributes CONGEST costs to this span (accumulates across calls).
  void add(std::uint64_t rounds, std::uint64_t messages, std::uint64_t bits);
  /// Closes the span now (idempotent).
  void finish();

 private:
  MetricsRegistry* reg_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t rounds_ = 0, messages_ = 0, bits_ = 0;
};

/// PhaseTimer bound to the global registry — the form instrumentation
/// sites use; free when metrics are disabled.
class ScopedTimer : public PhaseTimer {
 public:
  explicit ScopedTimer(std::string_view name) : PhaseTimer(global(), name) {}
};

/// RAII capture session: installs a fresh registry when `path` is
/// non-empty; on destruction uninstalls it and writes the JSONL to
/// `path`. With an empty path the whole object is inert, so drivers can
/// construct one unconditionally from a --metrics-out flag.
class ScopedExport {
 public:
  explicit ScopedExport(std::string path);
  ~ScopedExport();
  ScopedExport(const ScopedExport&) = delete;
  ScopedExport& operator=(const ScopedExport&) = delete;

  MetricsRegistry* registry() { return reg_.get(); }

 private:
  std::string path_;
  std::unique_ptr<MetricsRegistry> reg_;
};

}  // namespace qc::metrics
