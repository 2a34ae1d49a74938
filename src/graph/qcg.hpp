#pragma once

// .qcg — the compact on-disk binary graph container.
//
// Layout (full byte-level spec in docs/formats.md): an 8-byte magic, a
// fixed 64-byte little-endian header, then the sorted CSR the in-memory
// Graph uses, stored as per-vertex degree + delta-varint adjacency. A load
// reads the file once and decodes it into owned CSR vectors (two
// allocations, no per-edge allocation).
//
// Every reader validates magic, version, encoding, header/payload length
// agreement, an FNV-1a payload checksum, and the full CSR contract
// (sorted, in-range, loop-free, symmetric) before returning a Graph, so a
// truncated or corrupted file fails loudly instead of producing a
// plausible wrong topology.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace qc::graph {

inline constexpr char kQcgMagic[8] = {'Q', 'C', 'G', 'R', 'A', 'P', 'H', '1'};
inline constexpr std::uint16_t kQcgVersion = 1;
inline constexpr std::size_t kQcgHeaderBytes = 64;

/// The header's encoding byte. Byte 0 was a raw-CSR encoding, now retired:
/// readers reject it with a message that says so.
enum class QcgEncoding : std::uint8_t {
  kDeltaVarint = 1,  ///< degree + delta-varint adjacency
};

/// Header-level metadata of a .qcg file (what `qcongest graph-info`
/// prints).
struct QcgInfo {
  std::uint16_t version = 0;
  QcgEncoding encoding = QcgEncoding::kDeltaVarint;
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;  ///< directed arc count = 2m
  std::uint64_t payload_bytes = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t checksum = 0;

  std::uint64_t m() const { return arcs / 2; }
  double bytes_per_edge() const {
    return m() == 0 ? 0.0
                    : static_cast<double>(file_bytes) /
                          static_cast<double>(m());
  }
};

/// Writes `g` to `path`. Deterministic: the same graph always produces the
/// same bytes.
void write_qcg_file(const std::string& path, const Graph& g);

/// Loads a .qcg file into owned CSR vectors.
Graph read_qcg_file(const std::string& path);

/// Decodes a whole .qcg file already in memory; `path` only labels errors.
/// read_qcg_file and load_graph_file both end here.
Graph decode_qcg(std::string_view file, const std::string& path);

/// Reads and validates the header of a .qcg file.
QcgInfo qcg_info_file(const std::string& path);

/// True when `path` exists and starts with the .qcg magic. Never throws.
bool is_qcg_file(const std::string& path);

/// True when `bytes` start with the .qcg magic.
bool has_qcg_magic(std::string_view bytes);

/// Reads a whole regular file. Sizing goes through a 64-bit filesystem
/// query; a missing path, a directory or a short read throws
/// InvalidArgumentError.
std::string read_file_bytes(const std::string& path);

namespace qcgdetail {

/// LEB128 unsigned varint append/read, exposed for tests and tools.
void varint_append(std::vector<std::uint8_t>& out, std::uint64_t x);

/// Reads one varint at `pos`, advancing it. Throws InvalidArgumentError on
/// truncation or an overlong (> 10 byte) encoding.
std::uint64_t varint_read(const std::uint8_t* data, std::size_t size,
                          std::size_t& pos);

/// FNV-1a 64-bit, the payload checksum.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 14695981039346656037ull);

}  // namespace qcgdetail

}  // namespace qc::graph
