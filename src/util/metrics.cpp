#include "util/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <utility>

#include "util/error.hpp"

namespace qc::metrics {

namespace {

std::atomic<MetricsRegistry*> g_registry{nullptr};

// Innermost open spans of the current thread. Entries carry the owning
// registry so a span begun against one registry can never become the
// parent of a span in another (tests swap registries freely).
thread_local std::vector<std::pair<const MetricsRegistry*, std::uint64_t>>
    tls_span_stack;

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
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

MetricsRegistry* global() {
  return g_registry.load(std::memory_order_relaxed);
}

void set_global(MetricsRegistry* reg) {
  g_registry.store(reg, std::memory_order_release);
}

bool enabled() { return global() != nullptr; }

void count(std::string_view name, std::uint64_t delta,
           std::string_view label) {
  if (auto* m = global()) m->add_counter(name, delta, label);
}

void gauge(std::string_view name, double value, std::string_view label) {
  if (auto* m = global()) m->set_gauge(name, value, label);
}

void observe(std::string_view name, double value) {
  if (auto* m = global()) m->observe(name, value);
}

MetricsRegistry::MetricsRegistry() {
  epoch_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t MetricsRegistry::now_ns() const {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - epoch_ns_;
}

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t delta,
                                  std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : counters_) {
    if (c.name == name && c.label == label) {
      c.value += delta;
      return;
    }
  }
  counters_.push_back(Counter{std::string(name), std::string(label), delta});
}

void MetricsRegistry::set_gauge(std::string_view name, double value,
                                std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& g : gauges_) {
    if (g.name == name && g.label == label) {
      g.value = value;
      return;
    }
  }
  gauges_.push_back(Gauge{std::string(name), std::string(label), value});
}

MetricsRegistry::Histogram& MetricsRegistry::histogram_locked(
    std::string_view name) {
  for (auto& h : histograms_) {
    if (h.name == name) return h;
  }
  Histogram h;
  h.name = std::string(name);
  for (double b = 1.0; b <= 1048576.0; b *= 2.0) h.bounds.push_back(b);
  h.counts.assign(h.bounds.size() + 1, 0);
  histograms_.push_back(std::move(h));
  return histograms_.back();
}

void MetricsRegistry::register_histogram(std::string_view name,
                                         std::vector<double> upper_bounds) {
  require(!upper_bounds.empty(),
          "MetricsRegistry::register_histogram: empty bounds");
  require(std::is_sorted(upper_bounds.begin(), upper_bounds.end()),
          "MetricsRegistry::register_histogram: bounds must be ascending");
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& h : histograms_) {
    if (h.name == name) return;  // idempotent: first bounds win
  }
  Histogram h;
  h.name = std::string(name);
  h.bounds = std::move(upper_bounds);
  h.counts.assign(h.bounds.size() + 1, 0);
  histograms_.push_back(std::move(h));
}

void MetricsRegistry::observe(std::string_view name, double value) {
  observe(name, value, 1);
}

void MetricsRegistry::observe(std::string_view name, double value,
                              std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  Histogram& h = histogram_locked(name);
  const auto it = std::lower_bound(h.bounds.begin(), h.bounds.end(), value);
  h.counts[static_cast<std::size_t>(it - h.bounds.begin())] += count;
  h.total += count;
  h.sum += value * static_cast<double>(count);
}

std::uint64_t MetricsRegistry::begin_span(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t parent = 0;
  for (auto it = tls_span_stack.rbegin(); it != tls_span_stack.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  SpanSample s;
  s.id = next_span_id_++;
  s.parent = parent;
  s.name = std::string(name);
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  tls_span_stack.emplace_back(this, spans_.back().id);
  return spans_.back().id;
}

void MetricsRegistry::end_span(std::uint64_t id, std::uint64_t rounds,
                               std::uint64_t messages, std::uint64_t bits) {
  std::lock_guard<std::mutex> lock(mu_);
  require(id >= 1 && id < next_span_id_, "MetricsRegistry::end_span: bad id");
  SpanSample& s = spans_[id - 1];
  if (!s.complete) {
    s.duration_ns = now_ns() - s.start_ns;
    s.rounds = rounds;
    s.messages = messages;
    s.bits = bits;
    s.complete = true;
  }
  for (auto it = tls_span_stack.rbegin(); it != tls_span_stack.rend(); ++it) {
    if (it->first == this && it->second == id) {
      tls_span_stack.erase(std::next(it).base());
      break;
    }
  }
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name,
                                             std::string_view label) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) {
    if (c.name == name && c.label == label) return c.value;
  }
  return 0;
}

std::vector<SpanSample> MetricsRegistry::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"type\":\"meta\",\"schema_version\":" << kSchemaVersion
     << ",\"producer\":\"qcongest\"}\n";

  auto counters = counters_;
  std::sort(counters.begin(), counters.end(),
            [](const Counter& a, const Counter& b) {
              return std::tie(a.name, a.label) < std::tie(b.name, b.label);
            });
  for (const auto& c : counters) {
    os << "{\"type\":\"counter\",\"name\":\"" << json_escape(c.name)
       << "\",\"label\":\"" << json_escape(c.label)
       << "\",\"value\":" << c.value << "}\n";
  }

  auto gauges = gauges_;
  std::sort(gauges.begin(), gauges.end(), [](const Gauge& a, const Gauge& b) {
    return std::tie(a.name, a.label) < std::tie(b.name, b.label);
  });
  for (const auto& g : gauges) {
    os << "{\"type\":\"gauge\",\"name\":\"" << json_escape(g.name)
       << "\",\"label\":\"" << json_escape(g.label)
       << "\",\"value\":" << fmt_double(g.value) << "}\n";
  }

  auto histograms = histograms_;
  std::sort(histograms.begin(), histograms.end(),
            [](const Histogram& a, const Histogram& b) {
              return a.name < b.name;
            });
  for (const auto& h : histograms) {
    os << "{\"type\":\"histogram\",\"name\":\"" << json_escape(h.name)
       << "\",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i != 0) os << ",";
      os << fmt_double(h.bounds[i]);
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i != 0) os << ",";
      os << h.counts[i];
    }
    os << "],\"count\":" << h.total << ",\"sum\":" << fmt_double(h.sum)
       << "}\n";
  }

  for (const auto& s : spans_) {  // already in id order
    os << "{\"type\":\"span\",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"name\":\"" << json_escape(s.name)
       << "\",\"start_ns\":" << s.start_ns
       << ",\"duration_ns\":" << s.duration_ns << ",\"rounds\":" << s.rounds
       << ",\"messages\":" << s.messages << ",\"bits\":" << s.bits << "}\n";
  }
}

void MetricsRegistry::write_jsonl_file(const std::string& path) const {
  std::ofstream ofs(path);
  require(ofs.good(), "MetricsRegistry: cannot open " + path + " for write");
  write_jsonl(ofs);
  ofs.flush();
  require(ofs.good(), "MetricsRegistry: failed writing " + path);
}

SpanParent current_span() {
  MetricsRegistry* reg = global();
  if (reg == nullptr) return {};
  for (auto it = tls_span_stack.rbegin(); it != tls_span_stack.rend(); ++it) {
    if (it->first == reg) return {reg, it->second};
  }
  return {};
}

AdoptSpanParent::AdoptSpanParent(SpanParent parent) : parent_(parent) {
  if (parent_.reg != nullptr) {
    tls_span_stack.emplace_back(parent_.reg, parent_.id);
  }
}

AdoptSpanParent::~AdoptSpanParent() {
  if (parent_.reg == nullptr) return;
  const std::pair<const MetricsRegistry*, std::uint64_t> entry(parent_.reg,
                                                               parent_.id);
  const auto it = std::find(tls_span_stack.rbegin(), tls_span_stack.rend(),
                            entry);
  if (it != tls_span_stack.rend()) tls_span_stack.erase(std::next(it).base());
}

PhaseTimer::PhaseTimer(MetricsRegistry* reg, std::string_view name)
    : reg_(reg) {
  if (reg_ != nullptr) id_ = reg_->begin_span(name);
}

PhaseTimer::~PhaseTimer() { finish(); }

void PhaseTimer::add(std::uint64_t rounds, std::uint64_t messages,
                     std::uint64_t bits) {
  rounds_ += rounds;
  messages_ += messages;
  bits_ += bits;
}

void PhaseTimer::finish() {
  if (reg_ != nullptr && id_ != 0) {
    reg_->end_span(id_, rounds_, messages_, bits_);
    id_ = 0;
  }
}

ScopedExport::ScopedExport(std::string path) : path_(std::move(path)) {
  if (!path_.empty()) {
    reg_ = std::make_unique<MetricsRegistry>();
    set_global(reg_.get());
  }
}

ScopedExport::~ScopedExport() {
  if (reg_ != nullptr) {
    if (global() == reg_.get()) set_global(nullptr);
    try {
      reg_->write_jsonl_file(path_);
    } catch (const std::exception& e) {
      // A destructor must not throw; an unwritable path loses telemetry
      // only, never the computation.
      std::fprintf(stderr, "metrics: %s\n", e.what());
    }
  }
}

}  // namespace qc::metrics
