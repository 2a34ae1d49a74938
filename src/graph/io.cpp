#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/qcg.hpp"
#include "util/error.hpp"

namespace qc::graph {

namespace {

const char* skip_ws(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p;
}

/// Parses one unsigned decimal token at `p`, advancing `p` past it.
/// Returns false (leaving `p` at the offending position) when the cursor
/// hits end-of-line or a non-digit. std::from_chars-based: no streams and
/// no per-token allocation.
bool parse_u64(const char*& p, const char* end, std::uint64_t& out) {
  p = skip_ws(p, end);
  if (p == end) return false;
  const auto [q, ec] = std::from_chars(p, end, out);
  if (ec != std::errc() || q == p) return false;
  p = q;
  return true;
}

/// Error strings carry the line number, but they must only be built on the
/// failure path — a `require(cond, "..." + to_string(lineno))` call site
/// would allocate the message per line.
[[noreturn]] void fail_at_line(const char* what, std::size_t lineno) {
  throw InvalidArgumentError("edge list: " + std::string(what) +
                             " on line " + std::to_string(lineno));
}

/// Compacts SNAP ids to 0..n-1 by sorted original value, so the result is
/// independent of the order edges appear in the file.
Graph compact_snap(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>&& raw) {
  require(!raw.empty(), "edge list: no edges in input");
  std::vector<std::uint64_t> ids;
  ids.reserve(raw.size() * 2);
  for (const auto& [u, v] : raw) {
    ids.push_back(u);
    ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  require(ids.size() <= 0xFFFFFFFFull,
          "edge list: more than 2^32-1 distinct vertex ids");
  const auto compact = [&ids](std::uint64_t raw_id) {
    return static_cast<NodeId>(
        std::lower_bound(ids.begin(), ids.end(), raw_id) - ids.begin());
  };
  std::vector<Edge> edges;
  edges.reserve(raw.size());
  for (const auto& [u, v] : raw) edges.push_back({compact(u), compact(v)});
  raw = {};
  return Graph::from_edges(static_cast<std::uint32_t>(ids.size()),
                           std::move(edges));
}

/// The one edge-list parser (flavours documented at read_edge_list). One
/// pass over the text with no per-line allocation.
Graph parse_edge_list(std::string_view text, std::string* format_out) {
  // One reservation, bounded by the input rather than by a header a crafted
  // file controls: every edge sits on its own line of at least four bytes
  // ("u v" and the newline).
  const auto newlines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  const std::size_t max_edges = std::min(newlines, text.size() / 4) + 1;
  bool seen_first = false;
  bool snap = false;
  std::uint64_t n = 0;
  std::vector<Edge> edges;  // native
  std::vector<std::pair<std::uint64_t, std::uint64_t>> raw;  // SNAP
  std::size_t lineno = 0;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t nl = std::min(text.find('\n', start), text.size());
    const char* p = text.data() + start;
    const char* end = text.data() + nl;
    start = nl + 1;
    ++lineno;
    p = skip_ws(p, end);
    if (p == end || *p == '#' || *p == '%') continue;
    std::uint64_t u = 0, v = 0;
    if (!parse_u64(p, end, u)) {
      fail_at_line(seen_first ? "expected an integer vertex id"
                              : "expected a vertex count or an edge",
                   lineno);
    }
    const bool two = parse_u64(p, end, v);
    if (!seen_first) {
      seen_first = true;
      snap = two;
      if (!snap) {
        if (u > 0xFFFFFFFFull) fail_at_line("vertex count too large", lineno);
        n = u;
        edges.reserve(max_edges);
        continue;
      }
      raw.reserve(max_edges);
    }
    if (!two) fail_at_line("expected 'u v'", lineno);
    if (snap) {
      if (u != v) raw.emplace_back(u, v);
      continue;
    }
    if (u >= n || v >= n) fail_at_line("vertex id out of range", lineno);
    if (u == v) fail_at_line("self-loop", lineno);
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
  }
  require(seen_first, "edge list: empty input");
  if (format_out != nullptr) *format_out = snap ? "snap" : "edge-list";
  if (snap) return compact_snap(std::move(raw));
  return Graph::from_edges(static_cast<std::uint32_t>(n), std::move(edges));
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  const std::string text(std::istreambuf_iterator<char>(in), {});
  return parse_edge_list(text, nullptr);
}

void write_edge_list(std::ostream& out, const Graph& g,
                     const std::string& comment) {
  if (!comment.empty()) out << "# " << comment << "\n";
  out << "# " << g.describe() << "\n" << g.n() << "\n";
  for (const auto& [u, v] : g.edges()) out << u << ' ' << v << "\n";
}

void write_edge_list_file(const std::string& path, const Graph& g,
                          const std::string& comment) {
  std::ofstream out(path);
  require(out.good(), "write_edge_list_file: cannot open " + path);
  write_edge_list(out, g, comment);
}

Graph load_graph_file(const std::string& path, std::string* format_out) {
  const std::string bytes = read_file_bytes(path);
  if (!has_qcg_magic(bytes)) return parse_edge_list(bytes, format_out);
  if (format_out != nullptr) *format_out = "qcg";
  return decode_qcg(bytes, path);
}

namespace {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  for (std::size_t start = 0;;) {
    const std::size_t at = s.find(sep, start);
    parts.push_back(s.substr(start, at - start));
    if (at == std::string_view::npos) return parts;
    start = at + 1;
  }
}

struct SpecFamily {
  std::string_view name;
  std::size_t args;  ///< required fields after the family name
  bool seeded;       ///< an optional seed may follow them
};

constexpr SpecFamily kSpecFamilies[] = {
    {"path", 1, false},        {"cycle", 1, false},
    {"star", 1, false},        {"complete", 1, false},
    {"hypercube", 1, false},   {"grid", 2, false},
    {"torus", 2, false},       {"tree", 2, false},
    {"barbell", 2, false},     {"caterpillar", 2, false},
    {"er", 2, true},           {"regular", 2, true},
    {"pa", 2, true},           {"clusters", 2, true},
    {"diam", 2, true}};

[[noreturn]] void spec_fail(const std::string& spec,
                            const std::string& why) {
  throw InvalidArgumentError("make_from_spec: " + why + " in '" + spec +
                             "'\n" + spec_help());
}

}  // namespace

Graph make_from_spec(const std::string& spec) {
  const auto p = split(spec, ':');
  const auto* fam = std::find_if(
      std::begin(kSpecFamilies), std::end(kSpecFamilies),
      [&](const SpecFamily& f) { return f.name == p[0]; });
  if (fam == std::end(kSpecFamilies)) {
    spec_fail(spec, "unknown family '" + std::string(p[0]) + "'");
  }
  if (p.size() - 1 < fam->args) spec_fail(spec, "missing argument");
  if (p.size() - 1 > fam->args + (fam->seeded ? 1 : 0)) {
    spec_fail(spec, "too many fields");
  }

  // Each field is parsed as a whole token: "5x", "-3" or an empty field is
  // an error, never a silently accepted prefix or a wrapped-around value.
  const auto u64 = [&](std::size_t i) {
    const char* q = p[i].data();
    const char* end = q + p[i].size();
    std::uint64_t x = 0;
    if (!parse_u64(q, end, x) || q != end) {
      spec_fail(spec,
                "'" + std::string(p[i]) + "' is not an unsigned integer");
    }
    return x;
  };
  const auto u32 = [&](std::size_t i) {
    const std::uint64_t x = u64(i);
    if (x > 0xFFFFFFFFull) {
      spec_fail(spec, "'" + std::string(p[i]) + "' does not fit in 32 bits");
    }
    return static_cast<std::uint32_t>(x);
  };
  const auto probability = [&](std::size_t i) {
    const char* end = p[i].data() + p[i].size();
    double x = 0;
    const auto [q, ec] = std::from_chars(p[i].data(), end, x);
    // The negated range test also rejects NaN.
    if (ec != std::errc() || q != end || !(x >= 0.0 && x <= 1.0)) {
      spec_fail(spec,
                "'" + std::string(p[i]) + "' is not a probability in [0,1]");
    }
    return x;
  };

  const std::string_view f = fam->name;
  if (f == "path") return make_path(u32(1));
  if (f == "cycle") return make_cycle(u32(1));
  if (f == "star") return make_star(u32(1));
  if (f == "complete") return make_complete(u32(1));
  if (f == "hypercube") return make_hypercube(u32(1));
  if (f == "grid") return make_grid(u32(1), u32(2));
  if (f == "torus") return make_torus(u32(1), u32(2));
  if (f == "tree") return make_balanced_tree(u32(1), u32(2));
  if (f == "barbell") return make_barbell(u32(1), u32(2));
  if (f == "caterpillar") return make_caterpillar(u32(1), u32(2));
  Rng r(p.size() > 3 ? u64(3) : 12345);
  if (f == "er") return make_connected_er(u32(1), probability(2), r);
  if (f == "regular") return make_random_regular(u32(1), u32(2), r);
  if (f == "pa") return make_preferential_attachment(u32(1), u32(2), r);
  if (f == "clusters") return make_two_clusters(u32(1), u32(2), r);
  return make_random_with_diameter(u32(1), u32(2), r);
}

std::string spec_help() {
  return "generator specs (family:args[:seed]):\n"
         "  path:N cycle:N star:N complete:N hypercube:DIMS\n"
         "  grid:R:C torus:R:C tree:N:ARITY barbell:K:LEN\n"
         "  caterpillar:N:SPINE er:N:P[:seed] regular:N:D[:seed]\n"
         "  pa:N:M[:seed] clusters:K:BRIDGES[:seed] diam:N:D[:seed]";
}

}  // namespace qc::graph
