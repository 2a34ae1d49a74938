#pragma once

// qcongestd wire protocol.
//
// A deliberately small length-prefixed binary protocol over a local stream
// socket (Unix-domain or loopback TCP), validated with the same adversarial
// rigor as the `.qcg` decoder: every length is capped and cross-checked,
// unknown op/status bytes are rejected, and a truncated frame is an error,
// never a partial read into undefined state.
//
// Framing (all integers little-endian):
//
//   frame    := u32 payload_len | payload            payload_len in
//                                                    [1, kMaxFrameBytes]
//   request  := u8 version | u8 op | u8 x2 reserved(0)
//             | u64 arg | u32 path_len | path bytes
//   response := u8 version | u8 status | u8 x2 reserved(0)
//             | u64 value | u64 aux | u32 msg_len | msg bytes
//
// `path` is the server-side graph key (a file path for `load`, the same
// key afterwards); `arg` carries the op-specific integer (the vertex for
// `ecc`, the BFS root of the double sweep for `approx`, 0 otherwise). `value`/`aux` carry
// the numeric answer (see op table in docs/serving.md); `msg` carries the
// error text or an info payload. Full spec: docs/serving.md.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace qc::serve {

inline constexpr std::uint8_t kProtocolVersion = 1;

/// Hard cap on one frame's payload. Requests carry a path and responses a
/// short message, so 1 MiB is generous; anything larger is a corrupt or
/// hostile peer and is rejected before any allocation of that size.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
/// Cap on the graph-key field of a request (PATH_MAX-ish).
inline constexpr std::uint32_t kMaxPathBytes = 4096;
/// Cap on the message field of a response.
inline constexpr std::uint32_t kMaxMessageBytes = 1u << 16;

enum class Op : std::uint8_t {
  kPing = 0,       ///< liveness probe; echoes arg in value
  kLoad = 1,       ///< load path into the registry (idempotent)
  kUnload = 2,     ///< drop a resident graph
  kGraphInfo = 3,  ///< n/m/format of a resident graph; no BFS work
  kDiameter = 4,   ///< exact diameter (EccEngine, compute-once)
  kApprox = 5,     ///< double-sweep bounds from root `arg`: lb <= D <= 2*lb
  kRadius = 6,     ///< exact radius + center
  kEcc = 7,        ///< eccentricity of vertex `arg`
  kGirth = 8,      ///< exact girth (compute-once per resident graph)
  kStats = 9,      ///< server counters + resident keys as a JSON message
  kShutdown = 10,  ///< ack, then ask the daemon to stop
};
inline constexpr std::uint8_t kMaxOp = static_cast<std::uint8_t>(Op::kShutdown);

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,       ///< op-level failure (message has the reason)
  kBadRequest = 2,  ///< malformed frame/payload; connection is closed
  kRejected = 3,    ///< admission queue full; retry later
  kTimeout = 4,     ///< deadline passed while queued/executing
};
inline constexpr std::uint8_t kMaxStatus =
    static_cast<std::uint8_t>(Status::kTimeout);

struct Request {
  Op op = Op::kPing;
  std::string path;       ///< graph key (empty for ping/stats/shutdown)
  std::uint64_t arg = 0;  ///< op-specific integer argument
};

struct Response {
  Status status = Status::kOk;
  std::uint64_t value = 0;  ///< primary numeric answer
  std::uint64_t aux = 0;    ///< secondary (center vertex, m, upper bound...)
  std::string message;      ///< error text or info payload
};

/// Raised for every malformed payload or frame so callers can distinguish
/// peer protocol violations from local errors.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

const char* op_name(Op op);
const char* status_name(Status s);

/// Payload encoding (no frame header). encode_* never fails for values
/// within the documented caps; decode_* throws ProtocolError on anything
/// malformed: short/overlong buffers, unknown version/op/status bytes,
/// nonzero reserved bytes, or a length field disagreeing with the buffer.
std::vector<std::uint8_t> encode_request(const Request& req);
Request decode_request(std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_response(const Response& resp);
Response decode_response(std::span<const std::uint8_t> payload);

/// Blocking frame IO over a stream fd; both ends handle partial
/// reads/writes and EINTR.
///
/// read_frame returns false on a clean EOF at a frame boundary (the peer
/// closed); EOF inside a frame, a zero length, or a length above
/// `max_frame_bytes` throw ProtocolError.
///
/// Both ends take the cap as a parameter because the framing layer is
/// shared: qcongestd frames stay under kMaxFrameBytes, while the shard
/// backend (src/congest/shard) moves its lifecycle frames (a harvest of
/// every owned program's state) under its own, larger cap.
///
/// `frame_deadline_ms` (0: none; any other value needs a socket `fd`)
/// bounds a frame once it has begun: the wait for its first byte is unbounded, so
/// a peer may idle between frames, but the rest must arrive within the
/// deadline or read_frame throws ProtocolError. The reads after the first
/// do not block, and only one that finds no data polls for the time left,
/// so a frame that arrives whole costs the same reads as without one.
///
/// write_frame sends the concatenation of `parts` as one frame's payload,
/// a gather write that copies nothing: the shard coordinator relays byte
/// ranges of several workers' frames this way.
bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                std::uint32_t max_frame_bytes = kMaxFrameBytes,
                std::uint32_t frame_deadline_ms = 0);
void write_frame(int fd,
                 std::span<const std::span<const std::uint8_t>> parts,
                 std::uint32_t max_frame_bytes = kMaxFrameBytes);
inline void write_frame(int fd, std::span<const std::uint8_t> payload,
                        std::uint32_t max_frame_bytes = kMaxFrameBytes) {
  write_frame(fd, {&payload, 1}, max_frame_bytes);
}

}  // namespace qc::serve
