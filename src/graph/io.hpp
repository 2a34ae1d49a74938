#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace qc::graph {

/// Plain-text edge lists come in two flavours, told apart by the first
/// data line:
///   native  a lone vertex count <n>, then one "u v" line per edge with
///           0-based ids < n; a self-loop is an error. write_edge_list
///           writes this flavour, and read_edge_list reads it back.
///   SNAP    "u v" from the first data line on, as raw datasets ship; ids
///           are arbitrary 64-bit values, compacted to 0..n-1 in sorted
///           order (so the result does not depend on edge order), and
///           self-loops are dropped.
/// Both skip blank lines and lines that start with '#' or '%', take space-
/// or tab-separated ids, ignore columns after the second id (weights,
/// timestamps) and coalesce duplicate edges.
Graph read_edge_list(std::istream& in);
void write_edge_list(std::ostream& out, const Graph& g,
                     const std::string& comment = "");
void write_edge_list_file(const std::string& path, const Graph& g,
                          const std::string& comment = "");

/// Loads a graph file of any supported kind, detected by content (never
/// by extension): the file is read once, and the `.qcg` magic selects the
/// binary decoder; anything else goes to the edge-list parser.
/// `format_out`, when non-null, receives "qcg", "edge-list" (native), or
/// "snap".
Graph load_graph_file(const std::string& path,
                      std::string* format_out = nullptr);

/// Parses a generator spec of the form "family:arg1:arg2[:seed]" and
/// builds the graph. Supported families (see generators.hpp):
///   path:N            cycle:N           star:N         complete:N
///   grid:R:C          torus:R:C         tree:N:ARITY   hypercube:DIMS
///   barbell:K:LEN     caterpillar:N:SPINE
///   er:N:P[:seed]     regular:N:D[:seed]
///   pa:N:M[:seed]     clusters:K:BRIDGES[:seed]
///   diam:N:D[:seed]
/// Throws InvalidArgumentError with a helpful message on bad specs.
Graph make_from_spec(const std::string& spec);

/// Human-readable list of supported spec families (for CLI help).
std::string spec_help();

}  // namespace qc::graph
