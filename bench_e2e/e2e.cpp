#include "e2e.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace e2e {

double quantile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

Tail tail(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  for (const double p : {99.0, 90.0}) {
    if (static_cast<double>(xs.size()) * (100 - p) / 100 >= 10) {
      t.percentile = p;
      t.value = quantile(std::move(xs), p / 100);
      return t;
    }
  }
  t.value = *std::max_element(xs.begin(), xs.end());
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

/// Shortest round-trip decimal form: every digit the double carries.
std::string number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("metric value is not finite");
  }
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string MetricSet::json() const {
  std::string out = "{";
  for (const auto& [name, e] : values_) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": {\"value\": " + number(e.value) +
           ", \"unit\": " + quoted(e.unit) + "}";
  }
  return out + "}";
}

void RunResult::record(bool ok, std::string_view what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return;
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_.size() < 8) failures_.emplace_back(what);
}

std::uint64_t RunResult::attempted() const { return attempted_.load(); }

std::uint64_t RunResult::failed() const { return failed_.load(); }

std::vector<std::string> RunResult::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

// ---------------------------------------------------------------------------
// Tracer / Span

namespace {

/// The calling thread's innermost open span.
struct ThreadSpanContext {
  const Tracer* tracer = nullptr;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  bool recording = false;
};
thread_local ThreadSpanContext tl_ctx;

}  // namespace

std::uint64_t Tracer::open(std::string_view name, std::uint64_t parent,
                           std::uint64_t& op, Clock::time_point start) {
  std::lock_guard<std::mutex> lock(mu_);
  if (op == 0) op = next_op_++;
  SpanRecord r;
  r.id = spans_.size() + 1;
  r.parent = parent;
  r.op = op;
  r.name = std::string(name);
  r.start_ms =
      std::chrono::duration<double, std::milli>(start - epoch_).count();
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id, double dur_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].dur_ms = dur_ms;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write span dump " + path);
  for (const auto& s : spans()) {
    f << "{\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"op\": " << s.op << ", \"name\": " << quoted(s.name)
      << ", \"start_ms\": " << number(s.start_ms)
      << ", \"dur_ms\": " << number(s.dur_ms) << "}\n";
  }
}

Span::Span(Tracer& tracer, std::string_view name, bool root, bool record)
    : tracer_(&tracer),
      saved_parent_(tl_ctx.parent),
      saved_op_(tl_ctx.op),
      saved_recording_(tl_ctx.recording) {
  const bool inside = tl_ctx.recording && tl_ctx.tracer == &tracer;
  recording_ = root ? tracer.enabled() && record : inside;
  timed_ = root || recording_;
  if (timed_) start_ = Clock::now();
  if (recording_) {
    std::uint64_t op = root ? 0 : tl_ctx.op;
    id_ = tracer.open(name, root ? 0 : tl_ctx.parent, op, start_);
    tl_ctx = {&tracer, id_, op, true};
  } else if (root) {
    tl_ctx = {&tracer, 0, 0, false};  // untraced op: children stay inert
  }
}

double Span::end() {
  if (!open_) return dur_ms_;
  open_ = false;
  if (timed_) dur_ms_ = ms_since(start_);
  if (recording_) tracer_->close(id_, dur_ms_);
  tl_ctx.parent = saved_parent_;
  tl_ctx.op = saved_op_;
  tl_ctx.recording = saved_recording_;
  return dur_ms_;
}

void LoopStats::merge(const LoopStats& other) {
  ms.insert(ms.end(), other.ms.begin(), other.ms.end());
  traced_ms.insert(traced_ms.end(), other.traced_ms.begin(),
                   other.traced_ms.end());
  untraced_ms.insert(untraced_ms.end(), other.untraced_ms.begin(),
                     other.untraced_ms.end());
  wall_s = std::max(wall_s, other.wall_s);
}

// ---------------------------------------------------------------------------
// Metric derivation

void report_loop(RunResult& res, double setup_s, const LoopStats& loop) {
  const Tail t = tail(loop.ms);
  res.e2e.set("setup_s", setup_s, "s");
  res.e2e.set("op_p50_ms", median(loop.ms), "ms");
  res.e2e.set("op_tail_ms", t.value, "ms");
  res.e2e.set("ops_per_s", static_cast<double>(loop.ms.size()) / loop.wall_s,
              "1/s");
  res.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.report.set("op_tail_percentile", t.percentile, "%");
  res.report.set("op_tail_samples", static_cast<double>(t.samples), "count");
  res.report.set("ops", static_cast<double>(loop.ms.size()), "count");
}

void report_trace(RunResult& res, const Tracer& tracer,
                  const LoopStats& loop) {
  const auto spans = tracer.spans();
  std::unordered_map<std::uint64_t, double> child_ms;  // parent id -> sum
  for (const auto& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += s.dur_ms;
  }
  // Self time per layer (the span-name prefix before the first '.') over
  // the workload's ops, for the side report's attribution table.
  std::map<std::string, double> layer_self_ms;
  std::unordered_map<std::uint64_t, bool> in_op;  // op id -> workload op
  std::vector<double> coverage_pct, uncovered;
  double op_total = 0, covered_total = 0;
  for (const auto& s : spans) {
    if (s.parent == 0) in_op[s.op] = s.name == "op";
    if (s.parent != 0 || s.name != "op") continue;
    const double covered = child_ms[s.id];
    coverage_pct.push_back(100.0 * covered / s.dur_ms);
    uncovered.push_back(s.dur_ms - covered);
    op_total += s.dur_ms;
    covered_total += covered;
  }
  std::uint64_t recorded = 0;
  for (const auto& s : spans) {
    if (!in_op[s.op]) continue;
    ++recorded;
    if (s.parent == 0) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    layer_self_ms[layer] += s.dur_ms - child_ms[s.id];
  }
  const double ops = static_cast<double>(std::max<std::size_t>(
      uncovered.size(), 1));
  for (const auto& [layer, ms] : layer_self_ms) {
    res.report.set("self_ms_per_op." + layer, ms / ops, "ms");
  }
  const double traced = median(loop.traced_ms);
  const double untraced = median(loop.untraced_ms);
  res.layer.set("trace.coverage_pct", 100.0 * covered_total / op_total, "%");
  res.layer.set("trace.coverage_p1_pct", quantile(coverage_pct, 0.01), "%");
  res.layer.set("trace.uncovered_self_ms", median(uncovered), "ms");
  res.layer.set("trace.overhead_pct",
                untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0,
                "%");
  res.layer.set("trace.op_spans", static_cast<double>(recorded), "count");
}

}  // namespace e2e
