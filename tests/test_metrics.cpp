// Tests for qc::metrics: golden-schema pinning of the JSONL export, span
// hierarchy, and the enablement contract (disabled registry = bit-identical
// algorithm outputs, enabled registry only observes).
//
// The test named ExternalFileValidates doubles as the CI schema validator:
// set QC_METRICS_VALIDATE=<path to a .jsonl capture> and it validates that
// file instead of skipping.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/quantum_diameter.hpp"
#include "core/quantum_radius.hpp"
#include "graph/generators.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace qc {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value parser — just enough for the flat objects the exporter
// emits: string/number scalars and arrays of numbers. Throws on any input
// the schema does not allow, which is exactly what a validator wants.

struct JsonValue {
  enum class Kind { kString, kNumber, kNumberArray } kind = Kind::kNumber;
  std::string str;
  double num = 0.0;
  std::vector<double> arr;
};

using JsonObject = std::map<std::string, JsonValue>;

class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : s_(text) {}

  JsonObject parse_object() {
    expect('{');
    JsonObject obj;
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      const std::string key = parse_string();
      expect(':');
      obj[key] = parse_value();
      const char c = next();
      if (c == '}') break;
      if (c != ',') throw std::runtime_error("expected , or } in object");
    }
    return obj;
  }

 private:
  JsonValue parse_value() {
    JsonValue v;
    const char c = peek();
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string();
    } else if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kNumberArray;
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.arr.push_back(parse_number());
        const char d = next();
        if (d == ']') break;
        if (d != ',') throw std::runtime_error("expected , or ] in array");
      }
    } else {
      v.kind = JsonValue::Kind::kNumber;
      v.num = parse_number();
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
            out += static_cast<char>(
                std::stoi(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: throw std::runtime_error("unknown escape");
        }
      } else {
        out += c;
      }
    }
    expect('"');
    return out;
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("expected number");
    return std::stod(s_.substr(start, pos_ - start));
  }

  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (next() != c) {
      throw std::runtime_error(std::string("expected '") + c + "'");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::vector<JsonObject> parse_jsonl(std::istream& is) {
  std::vector<JsonObject> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    MiniJsonParser p(line);
    out.push_back(p.parse_object());
  }
  return out;
}

std::set<std::string> keys_of(const JsonObject& obj) {
  std::set<std::string> ks;
  for (const auto& [k, v] : obj) ks.insert(k);
  return ks;
}

// Full schema-v1 validation of a parsed capture. Used both on in-process
// exports and (via QC_METRICS_VALIDATE) on files produced by the CLI.
void validate_capture(const std::vector<JsonObject>& lines) {
  ASSERT_FALSE(lines.empty());

  // Line 1 is the meta record carrying the schema version.
  const JsonObject& meta = lines.front();
  ASSERT_EQ(meta.at("type").str, "meta");
  EXPECT_EQ(keys_of(meta),
            (std::set<std::string>{"type", "schema_version", "producer"}));
  EXPECT_EQ(meta.at("schema_version").num, metrics::kSchemaVersion);

  const std::set<std::string> counter_keys{"type", "name", "label", "value"};
  const std::set<std::string> gauge_keys{"type", "name", "label", "value"};
  const std::set<std::string> histogram_keys{"type",   "name",  "bounds",
                                             "counts", "count", "sum"};
  const std::set<std::string> span_keys{"type",        "id",     "parent",
                                        "name",        "start_ns",
                                        "duration_ns", "rounds", "messages",
                                        "bits"};

  std::set<std::uint64_t> span_ids;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const JsonObject& o = lines[i];
    const std::string& type = o.at("type").str;
    if (type == "counter") {
      EXPECT_EQ(keys_of(o), counter_keys) << "line " << i + 1;
      EXPECT_GE(o.at("value").num, 0.0);
    } else if (type == "gauge") {
      EXPECT_EQ(keys_of(o), gauge_keys) << "line " << i + 1;
    } else if (type == "histogram") {
      EXPECT_EQ(keys_of(o), histogram_keys) << "line " << i + 1;
      const auto& bounds = o.at("bounds").arr;
      const auto& counts = o.at("counts").arr;
      // One overflow bucket past the last bound.
      EXPECT_EQ(counts.size(), bounds.size() + 1) << "line " << i + 1;
      EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()))
          << "line " << i + 1;
      double total = 0;
      for (double c : counts) total += c;
      EXPECT_EQ(total, o.at("count").num) << "line " << i + 1;
    } else if (type == "span") {
      EXPECT_EQ(keys_of(o), span_keys) << "line " << i + 1;
      const auto id = static_cast<std::uint64_t>(o.at("id").num);
      const auto parent = static_cast<std::uint64_t>(o.at("parent").num);
      EXPECT_GE(id, 1u);
      // Spans are exported in id order, so a parent always precedes its
      // children; 0 means top-level.
      if (parent != 0) {
        EXPECT_TRUE(span_ids.count(parent) == 1)
            << "span " << id << " has unknown parent " << parent;
      }
      span_ids.insert(id);
    } else {
      ADD_FAILURE() << "unknown record type '" << type << "' on line "
                    << i + 1;
    }
  }
}

graph::Graph test_graph(std::uint32_t n, std::uint32_t d,
                        std::uint64_t seed) {
  Rng rng(seed);
  return graph::make_random_with_diameter(n, d, rng);
}

// ---------------------------------------------------------------------------

TEST(Metrics, DisabledByDefaultAndFreeFunctionsNoOp) {
  ASSERT_EQ(metrics::global(), nullptr);
  EXPECT_FALSE(metrics::enabled());
  // All free functions must be harmless no-ops with no registry installed.
  metrics::count("m.c");
  metrics::gauge("m.g", 1.0);
  metrics::observe("m.h", 2.0);
  metrics::ScopedTimer t("m.span");
  t.add(1, 2, 3);
}

TEST(Metrics, CounterAccumulatesPerLabel) {
  metrics::MetricsRegistry reg;
  reg.add_counter("hits", 1);
  reg.add_counter("hits", 2);
  reg.add_counter("hits", 5, "labeled");
  EXPECT_EQ(reg.counter_value("hits"), 3u);
  EXPECT_EQ(reg.counter_value("hits", "labeled"), 5u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
}

TEST(Metrics, HistogramBucketingAndIdempotentRegistration) {
  metrics::MetricsRegistry reg;
  reg.register_histogram("lat", {1.0, 10.0, 100.0});
  // Re-registration with different bounds keeps the first bounds.
  reg.register_histogram("lat", {5.0});
  reg.observe("lat", 0.5);    // bucket <=1
  reg.observe("lat", 10.0);   // bucket <=10 (bounds are inclusive)
  reg.observe("lat", 99.0);   // bucket <=100
  reg.observe("lat", 1e6);    // overflow bucket
  std::ostringstream os;
  reg.write_jsonl(os);
  std::istringstream is(os.str());
  const auto lines = parse_jsonl(is);
  const JsonObject* hist = nullptr;
  for (const auto& o : lines) {
    if (o.at("type").str == "histogram" && o.at("name").str == "lat") {
      hist = &o;
    }
  }
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->at("bounds").arr, (std::vector<double>{1.0, 10.0, 100.0}));
  EXPECT_EQ(hist->at("counts").arr, (std::vector<double>{1, 1, 1, 1}));
  EXPECT_EQ(hist->at("count").num, 4.0);
  EXPECT_EQ(hist->at("sum").num, 0.5 + 10.0 + 99.0 + 1e6);
}

TEST(Metrics, BatchedObserveExportsLikeSingleObservations) {
  // MetricsObserver flushes integer tallies as observe(name, value, count);
  // the export must be byte-identical to observing one value at a time.
  metrics::MetricsRegistry one;
  metrics::MetricsRegistry batched;
  for (auto* reg : {&one, &batched}) {
    reg->register_histogram("bits", {8.0, 16.0, 32.0});
  }
  const std::vector<std::pair<double, std::uint64_t>> tally = {
      {7.0, 3}, {16.0, 5}, {17.0, 1}, {4096.0, 2}};
  for (const auto& [value, count] : tally) {
    for (std::uint64_t i = 0; i < count; ++i) one.observe("bits", value);
    batched.observe("bits", value, count);
  }
  std::ostringstream a;
  std::ostringstream b;
  one.write_jsonl(a);
  batched.write_jsonl(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Metrics, GoldenSchemaRoundTrip) {
  metrics::MetricsRegistry reg;
  reg.add_counter("c.one", 7, "with \"quotes\"\n");
  reg.set_gauge("g.pi", 3.25);
  reg.set_gauge("g.pi", 4.5);  // last write wins
  reg.observe("h.auto", 3.0);  // auto-registered power-of-two bounds
  {
    metrics::PhaseTimer outer(&reg, "outer");
    metrics::PhaseTimer inner(&reg, "inner");
    inner.add(10, 20, 30);
    inner.finish();
    outer.add(100, 200, 300);
  }

  std::ostringstream os;
  reg.write_jsonl(os);
  std::istringstream is(os.str());
  const auto lines = parse_jsonl(is);
  validate_capture(lines);

  std::map<std::string, const JsonObject*> by_name;
  for (const auto& o : lines) {
    auto it = o.find("name");
    if (it != o.end()) by_name[it->second.str] = &o;
  }
  ASSERT_TRUE(by_name.count("c.one"));
  EXPECT_EQ(by_name["c.one"]->at("value").num, 7.0);
  EXPECT_EQ(by_name["c.one"]->at("label").str, "with \"quotes\"\n");
  ASSERT_TRUE(by_name.count("g.pi"));
  EXPECT_EQ(by_name["g.pi"]->at("value").num, 4.5);
  ASSERT_TRUE(by_name.count("h.auto"));
  EXPECT_EQ(by_name["h.auto"]->at("count").num, 1.0);

  // Span hierarchy: inner's parent is outer; both carry their costs.
  ASSERT_TRUE(by_name.count("outer"));
  ASSERT_TRUE(by_name.count("inner"));
  const JsonObject& outer = *by_name["outer"];
  const JsonObject& inner = *by_name["inner"];
  EXPECT_EQ(inner.at("parent").num, outer.at("id").num);
  EXPECT_EQ(outer.at("parent").num, 0.0);
  EXPECT_EQ(inner.at("rounds").num, 10.0);
  EXPECT_EQ(inner.at("messages").num, 20.0);
  EXPECT_EQ(inner.at("bits").num, 30.0);
  EXPECT_EQ(outer.at("rounds").num, 100.0);
}

TEST(Metrics, SpanStackIsPerRegistry) {
  // A span begun against registry A must not become the parent of a span
  // in registry B even when both are open on the same thread.
  metrics::MetricsRegistry a, b;
  metrics::PhaseTimer ta(&a, "a.outer");
  metrics::PhaseTimer tb(&b, "b.outer");
  metrics::PhaseTimer tb2(&b, "b.inner");
  tb2.finish();
  tb.finish();
  ta.finish();
  const auto spans_a = a.spans();
  const auto spans_b = b.spans();
  ASSERT_EQ(spans_a.size(), 1u);
  ASSERT_EQ(spans_b.size(), 2u);
  EXPECT_EQ(spans_a[0].parent, 0u);
  EXPECT_EQ(spans_b[0].parent, 0u);
  EXPECT_EQ(spans_b[1].parent, spans_b[0].id);
}

TEST(Metrics, AdoptedParentNestsTaskSpans) {
  // A task that adopts the launching thread's innermost span opens its
  // spans under it; without adopting, they are roots.
  metrics::MetricsRegistry reg;
  metrics::set_global(&reg);
  std::uint64_t outer_id = 0;
  {
    metrics::ScopedTimer outer("outer");
    const metrics::SpanParent parent = metrics::current_span();
    EXPECT_EQ(parent.reg, &reg);
    std::thread([parent] {
      const metrics::AdoptSpanParent adopt(parent);
      metrics::ScopedTimer task("task");
    }).join();
    std::thread([] { metrics::ScopedTimer orphan("orphan"); }).join();
    outer_id = reg.spans().front().id;
  }
  metrics::set_global(nullptr);
  EXPECT_EQ(metrics::current_span().reg, nullptr);
  std::map<std::string, metrics::SpanSample> by_name;
  for (const auto& s : reg.spans()) by_name[s.name] = s;
  EXPECT_EQ(by_name.at("task").parent, outer_id);
  EXPECT_EQ(by_name.at("orphan").parent, 0u);
}

/// The parent span's name of every span called `name` in `reg`.
std::vector<std::string> parents_of(const metrics::MetricsRegistry& reg,
                                    const std::string& name) {
  const auto spans = reg.spans();
  std::vector<std::string> out;
  for (const auto& s : spans) {
    if (s.name != name) continue;
    out.push_back(s.parent == 0 ? "" : spans[s.parent - 1].name);
  }
  return out;
}

TEST(Metrics, FrontEndTaskSpansKeepTheirLogicalParent) {
  // With four branch workers the sweep runs on a task beside init and the
  // kDirect validation; it nests under the front-end span, beside the
  // validation. kSimulate branches on pool workers nest under the phase.
  const auto g = test_graph(300, 12, 17);
  core::QuantumConfig cfg;
  cfg.branch_threads = 4;
  cfg.oracle = core::OracleMode::kDirect;
  metrics::MetricsRegistry direct;
  metrics::set_global(&direct);
  EXPECT_FALSE(core::quantum_diameter_exact(g, cfg).subroutine_failed);
  metrics::set_global(nullptr);
  const std::vector<std::string> front_end = {"core.quantum_diameter_exact"};
  EXPECT_EQ(parents_of(direct, "graph.ecc_sweep"), front_end);
  EXPECT_EQ(parents_of(direct, "core.branch_simulate"), front_end);
  EXPECT_EQ(parents_of(direct, "core.oracle_build"), front_end);

  cfg.oracle = core::OracleMode::kSimulate;
  metrics::MetricsRegistry simulate;
  metrics::set_global(&simulate);
  EXPECT_FALSE(core::quantum_radius(test_graph(40, 5, 17), cfg)
                   .subroutine_failed);
  metrics::set_global(nullptr);
  const auto branches = parents_of(simulate, "core.branch_simulate");
  EXPECT_EQ(branches.size(), 40u);
  EXPECT_EQ(branches, std::vector<std::string>(branches.size(),
                                               "core.quantum_phase"));
}

// The tentpole's enablement contract: installing a registry must not change
// a single bit of any algorithm output or RunStats-derived report field.
TEST(Metrics, EnabledRunIsBitIdenticalToDisabledRun) {
  const auto g = test_graph(48, 6, 91);
  core::QuantumConfig cfg;
  cfg.seed = 5;
  cfg.oracle = core::OracleMode::kSimulate;

  const auto baseline = core::quantum_diameter_exact(g, cfg);

  metrics::MetricsRegistry reg;
  metrics::set_global(&reg);
  const auto instrumented = core::quantum_diameter_exact(g, cfg);
  metrics::set_global(nullptr);

  const auto again = core::quantum_diameter_exact(g, cfg);

  for (const auto* rep : {&instrumented, &again}) {
    EXPECT_EQ(rep->diameter, baseline.diameter);
    EXPECT_EQ(rep->leader, baseline.leader);
    EXPECT_EQ(rep->ecc_leader, baseline.ecc_leader);
    EXPECT_EQ(rep->total_rounds, baseline.total_rounds);
    EXPECT_EQ(rep->init_rounds, baseline.init_rounds);
    EXPECT_EQ(rep->t_setup, baseline.t_setup);
    EXPECT_EQ(rep->t_eval_forward, baseline.t_eval_forward);
    EXPECT_EQ(rep->costs.setup_invocations, baseline.costs.setup_invocations);
    EXPECT_EQ(rep->costs.grover_iterations, baseline.costs.grover_iterations);
    EXPECT_EQ(rep->costs.candidate_evaluations,
              baseline.costs.candidate_evaluations);
    EXPECT_EQ(rep->distinct_branch_evaluations,
              baseline.distinct_branch_evaluations);
    EXPECT_EQ(rep->reference_bfs_runs, baseline.reference_bfs_runs);
    EXPECT_EQ(rep->budget_exhausted, baseline.budget_exhausted);
    EXPECT_EQ(rep->per_node_memory_qubits, baseline.per_node_memory_qubits);
    EXPECT_EQ(rep->leader_memory_qubits, baseline.leader_memory_qubits);
    EXPECT_EQ(rep->subroutine_failed, baseline.subroutine_failed);
    EXPECT_EQ(rep->failure_reason, baseline.failure_reason);
  }

  // The instrumented run actually produced telemetry.
  EXPECT_GT(reg.counter_value("core.branch_evaluations"), 0u);
  EXPECT_GT(reg.counter_value("congest.rounds"), 0u);
  EXPECT_FALSE(reg.spans().empty());
}

TEST(Metrics, QuantumRunEmitsValidatedCapture) {
  const auto g = test_graph(40, 5, 17);
  core::QuantumConfig cfg;
  cfg.seed = 3;
  cfg.oracle = core::OracleMode::kDirect;

  metrics::MetricsRegistry reg;
  metrics::set_global(&reg);
  const auto rep = core::quantum_radius(g, cfg);
  metrics::set_global(nullptr);
  EXPECT_FALSE(rep.subroutine_failed);

  std::ostringstream os;
  reg.write_jsonl(os);
  std::istringstream is(os.str());
  const auto lines = parse_jsonl(is);
  validate_capture(lines);

  // The root span's rounds equal the report's model-level round count.
  const auto spans = reg.spans();
  ASSERT_FALSE(spans.empty());
  bool found_root = false;
  for (const auto& s : spans) {
    if (s.name == "core.quantum_radius") {
      found_root = true;
      EXPECT_TRUE(s.complete);
      EXPECT_EQ(s.rounds, rep.total_rounds);
    }
  }
  EXPECT_TRUE(found_root);
  EXPECT_GT(reg.counter_value("qsim.grover_iterations", "maximize"), 0u);
  EXPECT_GT(reg.counter_value("core.grover_iterations", "quantum_radius"),
            0u);
}

// CI hook: validate a capture produced by `qcongest --metrics-out`.
TEST(Metrics, ExternalFileValidates) {
  const char* path = std::getenv("QC_METRICS_VALIDATE");
  if (path == nullptr || *path == '\0') {
    GTEST_SKIP() << "QC_METRICS_VALIDATE not set";
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "cannot open " << path;
  const auto lines = parse_jsonl(is);
  validate_capture(lines);

  // A CLI capture must cover the run with spans: the root cli.* span and
  // the model-level costs attributed below it.
  std::uint64_t root_id = 0, root_ns = 0, child_ns = 0;
  for (const auto& o : lines) {
    if (o.at("type").str != "span") continue;
    const auto& name = o.at("name").str;
    if (name.rfind("cli.", 0) == 0 &&
        static_cast<std::uint64_t>(o.at("parent").num) == 0) {
      root_id = static_cast<std::uint64_t>(o.at("id").num);
      root_ns = static_cast<std::uint64_t>(o.at("duration_ns").num);
    }
  }
  ASSERT_NE(root_id, 0u) << "no top-level cli.* span in capture";
  for (const auto& o : lines) {
    if (o.at("type").str != "span") continue;
    if (static_cast<std::uint64_t>(o.at("parent").num) == root_id) {
      child_ns += static_cast<std::uint64_t>(o.at("duration_ns").num);
    }
  }
  ASSERT_GT(root_ns, 0u);
  // Spans must cover >= 90% of the command's wall time. Commands that
  // finish in under a millisecond are all fixed overhead (flag parsing,
  // stdout flushing) and carry no signal, so the bar applies to real
  // workloads only.
  if (root_ns >= 1'000'000) {
    EXPECT_GE(static_cast<double>(child_ns),
              0.9 * static_cast<double>(root_ns));
  }
}

}  // namespace
}  // namespace qc
