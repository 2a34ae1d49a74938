#include "graph/qcg.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "util/error.hpp"

namespace qc::graph {

namespace qcgdetail {

void varint_append(std::vector<std::uint8_t>& out, std::uint64_t x) {
  while (x >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(x) | 0x80);
    x >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(x));
}

std::uint64_t varint_read(const std::uint8_t* data, std::size_t size,
                          std::size_t& pos) {
  std::uint64_t x = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    require(pos < size, ".qcg: truncated varint");
    const std::uint8_t byte = data[pos++];
    x |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Reject overlong encodings so every value has exactly one byte
      // representation (needed for deterministic, bit-identical files).
      require(byte != 0 || shift == 0, ".qcg: overlong varint");
      // At shift 63 only bit 0 of the final byte fits in 64 bits; higher
      // payload bits would be silently truncated, so they are an error
      // rather than a second spelling of the same value.
      require(shift < 63 || byte <= 1, ".qcg: varint exceeds 64 bits");
      return x;
    }
  }
  throw InvalidArgumentError(".qcg: varint exceeds 64 bits");
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace qcgdetail

namespace {

using qcgdetail::fnv1a;
using qcgdetail::varint_append;
using qcgdetail::varint_read;

void store_le16(std::uint8_t* p, std::uint16_t x) {
  p[0] = static_cast<std::uint8_t>(x);
  p[1] = static_cast<std::uint8_t>(x >> 8);
}

void store_le64(std::uint8_t* p, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(x >> (8 * i));
}

std::uint16_t load_le16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) {
    x |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return x;
}

/// Parses and fully validates the fixed header against the file size, so
/// truncation and header/payload length disagreement fail here with a
/// specific message rather than as a wild read later.
QcgInfo parse_header(std::string_view file, const std::string& path) {
  require(file.size() >= kQcgHeaderBytes,
          ".qcg: file shorter than the 64-byte header: " + path);
  require(has_qcg_magic(file), ".qcg: bad magic (not a .qcg file): " + path);
  const auto* base = reinterpret_cast<const std::uint8_t*>(file.data());
  QcgInfo info;
  info.version = load_le16(base + 8);
  require(info.version == kQcgVersion, ".qcg: unsupported version in " + path);
  require(base[10] != 0,
          ".qcg: encoding 0 (raw CSR) is retired; only delta-varint (1) "
          "loads, in " + path);
  require(base[10] == static_cast<std::uint8_t>(QcgEncoding::kDeltaVarint),
          ".qcg: unknown encoding in " + path);
  require(base[11] == 0 && load_le32(base + 12) == 0 &&
              load_le64(base + 56) == 0,
          ".qcg: reserved header bytes must be zero in " + path);
  info.n = load_le64(base + 16);
  info.arcs = load_le64(base + 24);
  const std::uint64_t offsets_bytes = load_le64(base + 32);
  const std::uint64_t neighbors_bytes = load_le64(base + 40);
  info.checksum = load_le64(base + 48);
  info.file_bytes = file.size();
  info.payload_bytes = file.size() - kQcgHeaderBytes;

  require(info.n < 0x100000000ull,
          ".qcg: vertex count exceeds 32-bit node ids in " + path);
  require(info.arcs <= 0xFFFFFFFFull,
          ".qcg: arc count exceeds 32-bit offsets in " + path);
  require(info.arcs % 2 == 0,
          ".qcg: odd arc count (undirected graphs store 2m arcs) in " + path);
  require(offsets_bytes == 0,
          ".qcg: varint encoding must have no offsets section in " + path);
  require(info.payload_bytes == neighbors_bytes,
          ".qcg: header/payload length mismatch in " + path);
  // Each vertex spends at least one payload byte on its degree and each
  // arc at least one on its gap, so a crafted header cannot make the
  // decoder allocate more than the file's own size justifies.
  require(info.n + info.arcs <= info.payload_bytes,
          ".qcg: n and arcs exceed what the payload can encode in " + path);
  return info;
}

}  // namespace

bool has_qcg_magic(std::string_view bytes) {
  return bytes.size() >= sizeof(kQcgMagic) &&
         std::memcmp(bytes.data(), kQcgMagic, sizeof(kQcgMagic)) == 0;
}

std::string read_file_bytes(const std::string& path) {
  // Size through a 64-bit filesystem query, never an fseek/ftell `long`
  // that mis-sizes >2 GiB files on LP32 hosts; directories and other
  // non-regular files fail here instead of as an odd read later.
  namespace fs = std::filesystem;
  std::error_code ec;
  require(fs::is_regular_file(path, ec),
          "cannot open " + path + " (missing or not a regular file)");
  const std::uintmax_t size = fs::file_size(path, ec);
  require(!ec && size <= std::numeric_limits<std::size_t>::max(),
          "cannot size " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open " + path);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  require(static_cast<std::uint64_t>(in.gcount()) == size,
          "short read on " + path);
  return bytes;
}

void write_qcg_file(const std::string& path, const Graph& g) {
  std::vector<std::uint8_t> payload;
  payload.reserve(static_cast<std::size_t>(2 * g.m()) + g.n() + 16);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    varint_append(payload, nb.size());
    for (std::size_t i = 0; i < nb.size(); ++i) {
      // First neighbor absolute, then strictly positive gaps: sorted
      // adjacency makes every delta small, which is where the compression
      // comes from.
      varint_append(payload, i == 0 ? nb[i] : nb[i] - nb[i - 1]);
    }
  }
  std::uint8_t h[kQcgHeaderBytes] = {};
  std::memcpy(h, kQcgMagic, sizeof(kQcgMagic));
  store_le16(h + 8, kQcgVersion);
  h[10] = static_cast<std::uint8_t>(QcgEncoding::kDeltaVarint);
  store_le64(h + 16, g.n());
  store_le64(h + 24, 2 * g.m());
  store_le64(h + 40, payload.size());  // offsets section (+32) stays 0
  store_le64(h + 48, fnv1a(payload.data(), payload.size()));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  require(out.good(), "write_qcg_file: cannot open " + path);
  out.write(reinterpret_cast<const char*>(h), sizeof(h));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  out.flush();
  require(out.good(), "write_qcg_file: write failed for " + path);
}

Graph decode_qcg(std::string_view file, const std::string& path) {
  const QcgInfo h = parse_header(file, path);
  const auto* payload =
      reinterpret_cast<const std::uint8_t*>(file.data()) + kQcgHeaderBytes;
  const auto size = static_cast<std::size_t>(h.payload_bytes);
  require(fnv1a(payload, size) == h.checksum,
          ".qcg: payload checksum mismatch (corrupted file?) in " + path);

  const auto n = static_cast<std::uint32_t>(h.n);
  const auto arcs = static_cast<std::size_t>(h.arcs);
  std::vector<std::uint32_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> neighbors(arcs);
  std::size_t pos = 0;
  std::size_t k = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint64_t deg = varint_read(payload, size, pos);
    require(deg <= arcs - k, ".qcg: degree sum exceeds the arc count");
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < deg; ++i) {
      const std::uint64_t delta = varint_read(payload, size, pos);
      require(i == 0 || delta >= 1,
              ".qcg: adjacency deltas must be strictly positive");
      prev = i == 0 ? delta : prev + delta;
      require(prev < h.n, ".qcg: neighbor id out of range");
      neighbors[k++] = static_cast<NodeId>(prev);
    }
    offsets[v + 1] = static_cast<std::uint32_t>(k);
  }
  require(k == arcs, ".qcg: degree sum disagrees with the arc count");
  require(pos == size, ".qcg: trailing bytes after the adjacency stream");
  return Graph::from_csr(std::move(offsets), std::move(neighbors));
}

Graph read_qcg_file(const std::string& path) {
  return decode_qcg(read_file_bytes(path), path);
}

QcgInfo qcg_info_file(const std::string& path) {
  return parse_header(read_file_bytes(path), path);
}

bool is_qcg_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(kQcgMagic)] = {};
  in.read(magic, sizeof(magic));
  return has_qcg_magic(
      std::string_view(magic, static_cast<std::size_t>(in.gcount())));
}

}  // namespace qc::graph
