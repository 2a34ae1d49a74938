// The .qcg binary container, end to end: round-trip fidelity across
// generator families, writer determinism, header/payload rejection paths
// on crafted and corrupted files (the retired raw-CSR encoding included),
// the varint codec, and the O(1)-allocation guarantee of the load path.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/qcg.hpp"
#include "util/alloc_probe.hpp"
#include "util/error.hpp"

QC_INSTALL_ALLOC_PROBE();

namespace qc::graph {
namespace {

namespace fs = std::filesystem;

// Scratch file under the system temp dir, removed on scope exit. Names are
// prefixed per test so parallel ctest binaries never collide.
struct TempFile {
  explicit TempFile(const std::string& tag)
      : path((fs::temp_directory_path() / ("qc_test_qcg_" + tag)).string()) {}
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }
  std::string path;
};

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void store_le64_at(std::vector<std::uint8_t>& b, std::size_t off,
                   std::uint64_t x) {
  for (int i = 0; i < 8; ++i) b[off + i] = static_cast<std::uint8_t>(x >> (8 * i));
}

// Builds a syntactically well-formed kDeltaVarint file with an arbitrary
// adjacency stream — the hook for feeding the reader CSR contracts the
// writer could never produce.
void write_crafted_varint(const std::string& path, std::uint64_t n,
                          std::uint64_t arcs,
                          const std::vector<std::uint8_t>& stream) {
  std::vector<std::uint8_t> file(kQcgHeaderBytes, 0);
  for (int i = 0; i < 8; ++i)
    file[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(kQcgMagic[i]);
  file[8] = 1;   // version lo
  file[10] = 1;  // kDeltaVarint
  store_le64_at(file, 16, n);
  store_le64_at(file, 24, arcs);
  store_le64_at(file, 32, 0);  // offsets_bytes (unused for varint)
  store_le64_at(file, 40, stream.size());
  store_le64_at(file, 48, qcgdetail::fnv1a(stream.data(), stream.size()));
  file.insert(file.end(), stream.begin(), stream.end());
  write_bytes(path, file);
}

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.m(), b.m());
  const auto ao = a.csr_offsets(), bo = b.csr_offsets();
  const auto an = a.csr_neighbors(), bn = b.csr_neighbors();
  EXPECT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin()));
  EXPECT_TRUE(std::equal(an.begin(), an.end(), bn.begin()));
}

class QcgRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(QcgRoundTrip, PreservesCsrExactly) {
  const std::string spec = GetParam();
  const auto g = make_from_spec(spec);
  TempFile f("rt_" + spec);
  for (auto& ch : f.path)
    if (ch == ':') ch = '_';
  write_qcg_file(f.path, g);
  const auto back = read_qcg_file(f.path);
  expect_same_graph(g, back);

  const auto info = qcg_info_file(f.path);
  EXPECT_EQ(info.version, kQcgVersion);
  EXPECT_EQ(info.encoding, QcgEncoding::kDeltaVarint);
  EXPECT_EQ(info.n, g.n());
  EXPECT_EQ(info.m(), g.m());
  EXPECT_EQ(info.file_bytes, fs::file_size(f.path));
}

INSTANTIATE_TEST_SUITE_P(
    Families, QcgRoundTrip,
    ::testing::Values("path:50", "cycle:33", "star:17", "complete:12",
                      "torus:6:7", "hypercube:5", "tree:40:3",
                      "er:60:0.12:3", "pa:64:3:9", "diam:50:9:5"));

TEST(Qcg, TinyGraphsRoundTrip) {
  {
    const auto g = Graph::from_edges(1, std::vector<Edge>{});
    TempFile f("tiny1");
    write_qcg_file(f.path, g);
    const auto back = read_qcg_file(f.path);
    EXPECT_EQ(back.n(), 1u);
    EXPECT_EQ(back.m(), 0u);
  }
  {
    const auto g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
    TempFile f("tiny2");
    write_qcg_file(f.path, g);
    const auto back = read_qcg_file(f.path);
    expect_same_graph(g, back);
    EXPECT_TRUE(back.has_edge(0, 1));
  }
}

TEST(Qcg, WriterIsDeterministic) {
  const auto g = make_from_spec("pa:300:3:11");
  TempFile a("det_a"), b("det_b");
  write_qcg_file(a.path, g);
  write_qcg_file(b.path, g);
  EXPECT_EQ(read_bytes(a.path), read_bytes(b.path));
}

TEST(Qcg, IsQcgFileProbe) {
  TempFile qcg("probe_ok"), txt("probe_txt"), tiny("probe_tiny");
  write_qcg_file(qcg.path, make_from_spec("path:5"));
  EXPECT_TRUE(is_qcg_file(qcg.path));
  write_bytes(txt.path, {'5', '\n', '0', ' ', '1', '\n'});
  EXPECT_FALSE(is_qcg_file(txt.path));
  write_bytes(tiny.path, {'Q', 'C'});  // shorter than the magic
  EXPECT_FALSE(is_qcg_file(tiny.path));
  EXPECT_FALSE(is_qcg_file("/nonexistent/graph.qcg"));
}

class QcgReject : public ::testing::Test {
 protected:
  // A known-good varint file to corrupt, rebuilt per test.
  std::vector<std::uint8_t> good_file() {
    TempFile f("reject_base");
    write_qcg_file(f.path, make_from_spec("er:40:0.15:2"));
    return read_bytes(f.path);
  }

  void expect_rejected(const std::vector<std::uint8_t>& bytes,
                       const char* why) {
    TempFile f("reject_case");
    write_bytes(f.path, bytes);
    EXPECT_THROW(read_qcg_file(f.path), InvalidArgumentError) << why;
  }
};

TEST_F(QcgReject, BadMagic) {
  auto b = good_file();
  b[0] ^= 0x01;
  expect_rejected(b, "magic");
}

TEST_F(QcgReject, TruncatedHeader) {
  auto b = good_file();
  b.resize(kQcgHeaderBytes / 2);
  expect_rejected(b, "header truncation");
}

TEST_F(QcgReject, TruncatedPayload) {
  auto b = good_file();
  ASSERT_GT(b.size(), kQcgHeaderBytes + 5);
  b.resize(b.size() - 5);
  expect_rejected(b, "payload truncation");
}

TEST_F(QcgReject, HeaderPayloadLengthMismatch) {
  auto b = good_file();
  const std::uint64_t claimed = b.size() - kQcgHeaderBytes;
  store_le64_at(b, 40, claimed + 8);  // neighbors_bytes beyond EOF
  expect_rejected(b, "inflated neighbors_bytes");
  auto c = good_file();
  store_le64_at(c, 40, claimed - 1);  // payload longer than the header says
  expect_rejected(c, "deflated neighbors_bytes");
}

TEST_F(QcgReject, UnknownVersionOrEncoding) {
  auto b = good_file();
  b[8] = 2;  // version 2
  expect_rejected(b, "future version");
  auto c = good_file();
  c[10] = 7;  // encoding 7
  expect_rejected(c, "unknown encoding");
  // Encoding 0, the retired raw-CSR payload, gets a message naming it.
  auto d = good_file();
  d[10] = 0;
  TempFile f("reject_raw");
  write_bytes(f.path, d);
  try {
    read_qcg_file(f.path);
    FAIL() << "read_qcg_file accepted encoding 0";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("raw CSR"), std::string::npos)
        << e.what();
  }
}

TEST_F(QcgReject, OddArcCount) {
  auto b = good_file();
  std::uint64_t arcs = 0;
  for (int i = 0; i < 8; ++i)
    arcs |= static_cast<std::uint64_t>(b[24 + i]) << (8 * i);
  store_le64_at(b, 24, arcs + 1);
  expect_rejected(b, "odd arcs");
}

TEST_F(QcgReject, ChecksumCatchesPayloadFlip) {
  auto b = good_file();
  b[kQcgHeaderBytes + 3] ^= 0x40;
  expect_rejected(b, "payload bit flip");
}

TEST_F(QcgReject, ChecksumFieldFlipIsRejected) {
  auto b = good_file();
  store_le64_at(b, 48, 0xDEADBEEFull);  // corrupt the stored checksum only
  expect_rejected(b, "stored checksum flip over an intact payload");
}

TEST_F(QcgReject, NonZeroReservedFields) {
  auto b = good_file();
  b[12] = 1;  // reserved u32 at offset 12
  expect_rejected(b, "reserved field");
}

TEST_F(QcgReject, SubHeaderFilesFailCleanly) {
  // Zero-byte, one-byte, magic-only and 63-byte files: every sub-header
  // size must fail with the specific "shorter than the 64-byte header"
  // InvalidArgumentError — never a wild read or a confusing downstream
  // parse error. Pinned because the serve daemon forwards these messages
  // verbatim to clients on a failed `load`.
  const std::vector<std::size_t> sizes = {0, 1, sizeof(kQcgMagic),
                                          kQcgHeaderBytes - 1};
  for (const std::size_t size : sizes) {
    std::vector<std::uint8_t> bytes(size, 0);
    for (std::size_t i = 0; i < std::min(size, sizeof(kQcgMagic)); ++i) {
      bytes[i] = static_cast<std::uint8_t>(kQcgMagic[i]);
    }
    TempFile f("tiny_" + std::to_string(size));
    write_bytes(f.path, bytes);
    try {
      read_qcg_file(f.path);
      FAIL() << "read_qcg_file accepted a " << size << "-byte file";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("shorter"), std::string::npos)
          << "size " << size << ": " << e.what();
    }
    EXPECT_THROW(qcg_info_file(f.path), InvalidArgumentError)
        << "size " << size;
  }
}

TEST(QcgLoadFile, TinyAndEmptyFilesFailCleanlyViaAutoDetect) {
  // load_graph_file auto-detects by magic: a magic-prefixed stub follows
  // the .qcg path (header-size error), a zero-byte file follows the
  // edge-list path (empty-input error). All of these are clean
  // InvalidArgumentErrors a server can return to a client.
  TempFile empty("load_empty");
  write_bytes(empty.path, {});
  try {
    load_graph_file(empty.path);
    FAIL() << "load_graph_file accepted an empty file";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos)
        << e.what();
  }

  TempFile stub("load_stub");
  std::vector<std::uint8_t> magic_only;
  for (const char c : kQcgMagic) {
    magic_only.push_back(static_cast<std::uint8_t>(c));
  }
  write_bytes(stub.path, magic_only);
  try {
    load_graph_file(stub.path);
    FAIL() << "load_graph_file accepted a magic-only stub";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("shorter"), std::string::npos)
        << e.what();
  }

  // A missing path and a directory fail cleanly through both readers.
  for (const std::string& bad :
       {std::string("no/such/graph.qcg"), fs::temp_directory_path().string()}) {
    EXPECT_THROW(load_graph_file(bad), InvalidArgumentError) << bad;
    EXPECT_THROW(read_qcg_file(bad), InvalidArgumentError) << bad;
  }
}

// Structural CSR contracts on hand-crafted streams the writer cannot emit.
TEST_F(QcgReject, CraftedSelfLoop) {
  TempFile f("craft_loop");
  // n=2, arcs=2: v0 -> {1}, v1 -> {1} (self-loop at 1).
  write_crafted_varint(f.path, 2, 2, {1, 1, 1, 1});
  EXPECT_THROW(read_qcg_file(f.path), InvalidArgumentError);
}

TEST_F(QcgReject, CraftedAsymmetricAdjacency) {
  TempFile f("craft_asym");
  // n=3, arcs=2: v0 -> {1}, v1 -> {}, v2 -> {1}; 1 lists neither back-edge.
  write_crafted_varint(f.path, 3, 2, {1, 1, 0, 1, 1});
  EXPECT_THROW(read_qcg_file(f.path), InvalidArgumentError);
}

TEST_F(QcgReject, CraftedZeroDelta) {
  TempFile f("craft_dup");
  // v0 -> {1, 1} via a zero gap (duplicate neighbor).
  write_crafted_varint(f.path, 2, 4, {2, 1, 0, 2, 0, 0});
  EXPECT_THROW(read_qcg_file(f.path), InvalidArgumentError);
}

TEST_F(QcgReject, CraftedNeighborOutOfRange) {
  TempFile f("craft_oor");
  // n=2 but v0's first neighbor is 5.
  write_crafted_varint(f.path, 2, 2, {1, 5, 1, 0});
  EXPECT_THROW(read_qcg_file(f.path), InvalidArgumentError);
}

TEST_F(QcgReject, CraftedDegreeSumMismatch) {
  TempFile f("craft_sum");
  // Stream encodes 2 arcs; header claims 4. Two padding bytes keep the
  // payload as long as n + arcs, so the header passes and the decoder's
  // degree-sum check is the one that fires.
  write_crafted_varint(f.path, 2, 4, {1, 1, 1, 0, 0, 0});
  try {
    read_qcg_file(f.path);
    FAIL() << "accepted a degree-sum mismatch";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("degree sum"), std::string::npos)
        << e.what();
  }
}

TEST_F(QcgReject, CraftedCountsBeyondPayload) {
  // A 1-byte payload claiming 2^31 vertices (or 2^32-2 arcs) is rejected
  // from the header, before the decoder sizes its CSR vectors from it.
  for (const auto& [n, arcs] :
       {std::pair<std::uint64_t, std::uint64_t>{1ull << 31, 0},
        std::pair<std::uint64_t, std::uint64_t>{1, 0xFFFFFFFEull}}) {
    TempFile f("craft_counts");
    write_crafted_varint(f.path, n, arcs, {0});
    try {
      read_qcg_file(f.path);
      FAIL() << "accepted n=" << n << " arcs=" << arcs;
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("payload can encode"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(QcgReject, CraftedTrailingBytes) {
  TempFile f("craft_trail");
  // Valid 0-1 edge followed by a stray byte inside the declared stream.
  write_crafted_varint(f.path, 2, 2, {1, 1, 1, 0, 0});
  EXPECT_THROW(read_qcg_file(f.path), InvalidArgumentError);
}

TEST(QcgVarint, RoundTripsBoundaryValues) {
  for (const std::uint64_t x :
       {0ull, 1ull, 127ull, 128ull, 255ull, 300ull, 16383ull, 16384ull,
        (1ull << 32) - 1, 1ull << 32, 1ull << 63, ~0ull}) {
    std::vector<std::uint8_t> buf;
    qcgdetail::varint_append(buf, x);
    std::size_t pos = 0;
    EXPECT_EQ(qcgdetail::varint_read(buf.data(), buf.size(), pos), x);
    EXPECT_EQ(pos, buf.size()) << x;
  }
  // Encoding lengths at the 7-bit boundaries.
  std::vector<std::uint8_t> one, two;
  qcgdetail::varint_append(one, 127);
  qcgdetail::varint_append(two, 128);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(two.size(), 2u);
}

TEST(QcgVarint, RejectsMalformedEncodings) {
  std::size_t pos = 0;
  const std::uint8_t truncated[] = {0x80};
  EXPECT_THROW(qcgdetail::varint_read(truncated, 1, pos),
               InvalidArgumentError);
  pos = 0;
  const std::uint8_t overlong[] = {0x80, 0x00};  // 0 padded to two bytes
  EXPECT_THROW(qcgdetail::varint_read(overlong, 2, pos),
               InvalidArgumentError);
  pos = 0;
  std::uint8_t too_wide[11];
  for (auto& byte : too_wide) byte = 0x80;
  EXPECT_THROW(qcgdetail::varint_read(too_wide, 11, pos),
               InvalidArgumentError);
  // Only bit 0 of the 10th byte fits in 64 bits: a final byte with higher
  // payload bits set is a second spelling of the same value (0x41 and 0x01
  // would both decode to 1<<63) and must be rejected, while the canonical
  // encoding of 1<<63 still decodes.
  pos = 0;
  std::uint8_t noncanonical[10];
  for (auto& byte : noncanonical) byte = 0x80;
  noncanonical[9] = 0x41;
  EXPECT_THROW(qcgdetail::varint_read(noncanonical, 10, pos),
               InvalidArgumentError);
  pos = 0;
  noncanonical[9] = 0x01;
  EXPECT_EQ(qcgdetail::varint_read(noncanonical, 10, pos), 1ull << 63);
  EXPECT_EQ(pos, 10u);
}

TEST(QcgVarint, ChecksumIsOrderSensitive) {
  const std::uint8_t ab[] = {'a', 'b'};
  const std::uint8_t ba[] = {'b', 'a'};
  EXPECT_NE(qcgdetail::fnv1a(ab, 2), qcgdetail::fnv1a(ba, 2));
  EXPECT_EQ(qcgdetail::fnv1a(ab, 0), 14695981039346656037ull);
}

// The load path allocates O(1) times regardless of graph size: the number
// of operator-new calls for a 50x larger graph must equal the small one's
// (the file buffer, the two CSR vectors, stream and control blocks).
std::uint64_t count_load_allocs(const std::string& path) {
  const auto before = alloc_probe_count().load();
  const auto g = read_qcg_file(path);
  const auto after = alloc_probe_count().load();
  EXPECT_GT(g.n(), 0u);  // keep the load observable
  return after - before;
}

TEST(QcgAllocs, LoadIsConstantAllocation) {
  TempFile fs_("alloc_s"), fb("alloc_b");
  ASSERT_EQ(fs_.path.size(), fb.path.size());  // identical string costs
  write_qcg_file(fs_.path, make_from_spec("pa:200:3:5"));
  write_qcg_file(fb.path, make_from_spec("pa:10000:3:5"));
  const auto a_small = count_load_allocs(fs_.path);
  const auto a_big = count_load_allocs(fb.path);
  EXPECT_EQ(a_small, a_big);
  EXPECT_LE(a_big, 32u);
}

}  // namespace
}  // namespace qc::graph
