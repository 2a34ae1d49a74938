// edgelist2qcg — converts a text graph (native edge list or SNAP-style raw
// dataset, auto-detected) into the .qcg binary container.
//
//   edgelist2qcg IN OUT [--verify] [--quiet]
//
// --verify reads the written file back and checks the CSR is bit-identical
// to the source graph.

#include <filesystem>
#include <iostream>

#include "graph/io.hpp"
#include "graph/qcg.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace qc;
  Cli cli(argc, argv);
  cli.expect_flags({"verify", "quiet"});
  const auto& pos = cli.positional();
  if (pos.size() != 2) {
    std::cerr << "usage: edgelist2qcg IN OUT [--verify] [--quiet]\n";
    return 2;
  }
  const std::string& in = pos[0];
  const std::string& out = pos[1];

  std::string format;
  const auto g = graph::load_graph_file(in, &format);
  graph::write_qcg_file(out, g);

  if (cli.get_bool("verify", false)) {
    const auto back = graph::read_qcg_file(out);
    check_internal(back.n() == g.n() && back.m() == g.m(),
                   "edgelist2qcg: verify failed (size mismatch)");
    check_internal(std::equal(back.csr_offsets().begin(),
                              back.csr_offsets().end(),
                              g.csr_offsets().begin()) &&
                       std::equal(back.csr_neighbors().begin(),
                                  back.csr_neighbors().end(),
                                  g.csr_neighbors().begin()),
                   "edgelist2qcg: verify failed (CSR mismatch)");
  }

  if (!cli.get_bool("quiet", false)) {
    const auto in_bytes = std::filesystem::file_size(in);
    const auto out_bytes = std::filesystem::file_size(out);
    Table t({"property", "value"});
    t.add_row({"input", in + " (" + format + ")"});
    t.add_row({"graph", g.describe()});
    t.add_row({"output", out});
    t.add_row({"input bytes", fmt(static_cast<std::uint64_t>(in_bytes))});
    t.add_row({"output bytes", fmt(static_cast<std::uint64_t>(out_bytes))});
    t.add_row({"bytes/edge",
               fmt(g.m() == 0 ? 0.0
                              : static_cast<double>(out_bytes) /
                                    static_cast<double>(g.m()),
                   2)});
    t.add_row({"compression",
               fmt(out_bytes == 0 ? 0.0
                                  : static_cast<double>(in_bytes) /
                                        static_cast<double>(out_bytes),
                   2) +
                   "x"});
    t.print(std::cout);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
