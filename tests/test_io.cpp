#include <gtest/gtest.h>

#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qc::graph {
namespace {

TEST(EdgeListIo, RoundTrip) {
  Rng rng(3);
  auto g = make_connected_er(40, 0.08, rng);
  std::stringstream ss;
  write_edge_list(ss, g, "round trip test");
  auto g2 = read_edge_list(ss);
  EXPECT_EQ(g2.n(), g.n());
  EXPECT_EQ(g2.m(), g.m());
  EXPECT_EQ(g2.edges(), g.edges());
}

TEST(EdgeListIo, CommentsAndBlankLines) {
  // '#', '%' and blank lines are comments in both flavours, including
  // before a native file's vertex-count line.
  for (const char* text :
       {"# header\n\n4\n# edge block\n0 1\n1 2\n\n2 3\n",
        "% made by hand\n4\n0 1\n1 2\n2 3\n"}) {
    std::stringstream ss(text);
    auto g = read_edge_list(ss);
    EXPECT_EQ(g.n(), 4u) << text;
    EXPECT_EQ(g.m(), 3u) << text;
    EXPECT_TRUE(g.has_edge(2, 3)) << text;
  }
}

TEST(EdgeListIo, SnapFlavourCompactsIdsAndDropsSelfLoops) {
  // Two ids on the first data line select the SNAP flavour: sparse ids
  // compact in sorted order, self-loops vanish, duplicates coalesce.
  std::stringstream ss("% raw\n100 7\t3.5\n7 7\n7 100\n100 42\n");
  const auto g = read_edge_list(ss);
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.m(), 2u);
  EXPECT_TRUE(g.has_edge(0, 2));  // 7 - 100
  EXPECT_TRUE(g.has_edge(1, 2));  // 42 - 100
}

TEST(EdgeListIo, Errors) {
  std::stringstream empty("# nothing\n");
  EXPECT_THROW(read_edge_list(empty), InvalidArgumentError);
  std::stringstream oor("3\n0 7\n");
  EXPECT_THROW(read_edge_list(oor), InvalidArgumentError);
  std::stringstream short_line("3\n0\n");
  EXPECT_THROW(read_edge_list(short_line), InvalidArgumentError);
  std::stringstream loop("3\n1 1\n");  // native self-loops are errors
  EXPECT_THROW(read_edge_list(loop), InvalidArgumentError);
  std::stringstream garbage("hello\n");
  EXPECT_THROW(read_edge_list(garbage), InvalidArgumentError);
  EXPECT_THROW(load_graph_file("/nonexistent/file.txt"),
               InvalidArgumentError);
}

struct SpecCase {
  const char* spec;
  std::uint32_t n;
  std::uint32_t diameter;  // kUnreachable = don't check
};

class SpecParser : public ::testing::TestWithParam<SpecCase> {};

TEST_P(SpecParser, BuildsExpectedGraph) {
  const auto& c = GetParam();
  auto g = make_from_spec(c.spec);
  EXPECT_EQ(g.n(), c.n) << c.spec;
  EXPECT_TRUE(g.is_connected()) << c.spec;
  if (c.diameter != kUnreachable) {
    EXPECT_EQ(diameter(g), c.diameter) << c.spec;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, SpecParser,
    ::testing::Values(SpecCase{"path:10", 10, 9},
                      SpecCase{"cycle:12", 12, 6},
                      SpecCase{"star:7", 7, 2},
                      SpecCase{"complete:5", 5, 1},
                      SpecCase{"grid:3:4", 12, 5},
                      SpecCase{"torus:4:4", 16, 4},
                      SpecCase{"tree:15:2", 15, 6},
                      SpecCase{"hypercube:4", 16, 4},
                      SpecCase{"barbell:4:3", 10, 5},
                      SpecCase{"caterpillar:20:8", 20, kUnreachable},
                      SpecCase{"er:30:0.1:5", 30, kUnreachable},
                      SpecCase{"regular:30:4:5", 30, kUnreachable},
                      SpecCase{"pa:30:2:5", 30, kUnreachable},
                      SpecCase{"clusters:10:2:5", 20, kUnreachable},
                      SpecCase{"diam:50:9:5", 50, 9}));

TEST(SpecParser, SeedsAreRespected) {
  auto a = make_from_spec("er:30:0.1:1");
  auto b = make_from_spec("er:30:0.1:1");
  auto c = make_from_spec("er:30:0.1:2");
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_NE(a.edges(), c.edges());
}

TEST(SpecParser, BadSpecsThrowWithHelp) {
  try {
    make_from_spec("nosuch:5");
    FAIL() << "expected throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("generator specs"),
              std::string::npos);
  }
  EXPECT_THROW(make_from_spec("grid:3"), InvalidArgumentError);
  // Every field is one whole in-range token: no wrap-around, no silent
  // prefix, no ignored extra fields.
  for (const char* bad :
       {"path:-3", "path:4294967301", "path:5x", "er:50:zzz", "er:50:1.5",
        "er:50:nan", "diam:60:6:x1", "path:5:7:9", "path:", "er:50:0.1:1:2"}) {
    try {
      make_from_spec(bad);
      FAIL() << "accepted " << bad;
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("generator specs"),
                std::string::npos)
          << bad;
    }
  }
}

TEST(SpecHelp, MentionsEveryFamily) {
  const auto h = spec_help();
  for (const char* fam :
       {"path", "cycle", "grid", "torus", "hypercube", "er", "regular",
        "pa", "clusters", "diam"}) {
    EXPECT_NE(h.find(fam), std::string::npos) << fam;
  }
}

}  // namespace
}  // namespace qc::graph
