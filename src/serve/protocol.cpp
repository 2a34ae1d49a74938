#include "serve/protocol.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#define QC_HAVE_SOCKETS 1
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>
// Platforms without MSG_NOSIGNAL (macOS) rely on Server::start()
// ignoring SIGPIPE instead; either way a dead peer surfaces as EPIPE.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif
#ifndef IOV_MAX
#define IOV_MAX 16  // the POSIX minimum
#endif
#else
#define QC_HAVE_SOCKETS 0
#endif

namespace qc::serve {

namespace {

constexpr std::size_t kRequestFixedBytes = 1 + 1 + 2 + 8 + 4;
constexpr std::size_t kResponseFixedBytes = 1 + 1 + 2 + 8 + 8 + 4;

void append_le32(std::vector<std::uint8_t>& out, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
  }
}

void append_le64(std::vector<std::uint8_t>& out, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
  }
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

void proto_require(bool cond, const char* msg) {
  if (!cond) throw ProtocolError(msg);
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kLoad: return "load";
    case Op::kUnload: return "unload";
    case Op::kGraphInfo: return "graph-info";
    case Op::kDiameter: return "diameter";
    case Op::kApprox: return "approx";
    case Op::kRadius: return "radius";
    case Op::kEcc: return "ecc";
    case Op::kGirth: return "girth";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
  }
  return "unknown";
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kBadRequest: return "bad-request";
    case Status::kRejected: return "rejected";
    case Status::kTimeout: return "timeout";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_request(const Request& req) {
  require(req.path.size() <= kMaxPathBytes,
          "serve: request path exceeds kMaxPathBytes");
  std::vector<std::uint8_t> out;
  out.reserve(kRequestFixedBytes + req.path.size());
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(req.op));
  out.push_back(0);
  out.push_back(0);
  append_le64(out, req.arg);
  append_le32(out, static_cast<std::uint32_t>(req.path.size()));
  out.insert(out.end(), req.path.begin(), req.path.end());
  return out;
}

Request decode_request(std::span<const std::uint8_t> payload) {
  proto_require(payload.size() >= kRequestFixedBytes,
                "serve: request payload shorter than the fixed header");
  proto_require(payload[0] == kProtocolVersion,
                "serve: unsupported protocol version");
  proto_require(payload[1] <= kMaxOp, "serve: unknown request op");
  proto_require(payload[2] == 0 && payload[3] == 0,
                "serve: nonzero reserved request bytes");
  Request req;
  req.op = static_cast<Op>(payload[1]);
  req.arg = load_le64(payload.data() + 4);
  const std::uint32_t path_len = load_le32(payload.data() + 12);
  proto_require(path_len <= kMaxPathBytes,
                "serve: request path length exceeds the cap");
  proto_require(payload.size() == kRequestFixedBytes + path_len,
                "serve: request length disagrees with the path field");
  req.path.assign(reinterpret_cast<const char*>(payload.data()) +
                      kRequestFixedBytes,
                  path_len);
  return req;
}

std::vector<std::uint8_t> encode_response(const Response& resp) {
  // The server composes messages itself; truncate rather than fail so an
  // oversized error string can never wedge the reply path.
  std::string_view msg(resp.message);
  if (msg.size() > kMaxMessageBytes) msg = msg.substr(0, kMaxMessageBytes);
  std::vector<std::uint8_t> out;
  out.reserve(kResponseFixedBytes + msg.size());
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(resp.status));
  out.push_back(0);
  out.push_back(0);
  append_le64(out, resp.value);
  append_le64(out, resp.aux);
  append_le32(out, static_cast<std::uint32_t>(msg.size()));
  out.insert(out.end(), msg.begin(), msg.end());
  return out;
}

Response decode_response(std::span<const std::uint8_t> payload) {
  proto_require(payload.size() >= kResponseFixedBytes,
                "serve: response payload shorter than the fixed header");
  proto_require(payload[0] == kProtocolVersion,
                "serve: unsupported protocol version");
  proto_require(payload[1] <= kMaxStatus, "serve: unknown response status");
  proto_require(payload[2] == 0 && payload[3] == 0,
                "serve: nonzero reserved response bytes");
  Response resp;
  resp.status = static_cast<Status>(payload[1]);
  resp.value = load_le64(payload.data() + 4);
  resp.aux = load_le64(payload.data() + 12);
  const std::uint32_t msg_len = load_le32(payload.data() + 20);
  proto_require(msg_len <= kMaxMessageBytes,
                "serve: response message length exceeds the cap");
  proto_require(payload.size() == kResponseFixedBytes + msg_len,
                "serve: response length disagrees with the message field");
  resp.message.assign(reinterpret_cast<const char*>(payload.data()) +
                          kResponseFixedBytes,
                      msg_len);
  return resp;
}

#if QC_HAVE_SOCKETS

namespace {

/// Most iovecs one write_frame system call passes (the kernel rejects
/// more than IOV_MAX); a frame of more parts goes out over several calls.
constexpr int kIovBatch = IOV_MAX < 64 ? IOV_MAX : 64;

/// The deadline of one frame: unset until its first byte arrives.
struct FrameDeadline {
  std::uint32_t limit_ms = 0;  ///< 0: no deadline
  bool started = false;
  std::chrono::steady_clock::time_point at{};
};

/// Waits until `fd` is readable or the frame's deadline passes (throws).
void wait_readable(int fd, const FrameDeadline& deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline.at - std::chrono::steady_clock::now());
    proto_require(left.count() > 0,
                  "serve: frame deadline exceeded (the rest of the frame "
                  "did not arrive in time)");
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
    if (ready > 0) return;
    if (ready < 0 && errno != EINTR) {
      throw ProtocolError("serve: poll failed: " +
                          std::string(std::strerror(errno)));
    }
  }
}

/// Reads exactly `len` bytes. Returns the byte count read before EOF, so
/// the caller can tell a clean close (0) from a truncated frame (0 < got <
/// len). Throws on IO errors. Under a deadline, the first byte of the
/// frame starts it and every later read is non-blocking.
std::size_t read_exact(int fd, std::uint8_t* buf, std::size_t len,
                       FrameDeadline& deadline) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t r = deadline.started
                          ? ::recv(fd, buf + got, len - got, MSG_DONTWAIT)
                          : ::read(fd, buf + got, len - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (deadline.started && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        wait_readable(fd, deadline);
        continue;
      }
      throw ProtocolError("serve: read failed: " +
                          std::string(std::strerror(errno)));
    }
    if (r == 0) break;  // EOF
    got += static_cast<std::size_t>(r);
    if (deadline.limit_ms != 0 && !deadline.started) {
      deadline.started = true;
      deadline.at = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(deadline.limit_ms);
    }
  }
  return got;
}

}  // namespace

bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                std::uint32_t max_frame_bytes,
                std::uint32_t frame_deadline_ms) {
  FrameDeadline deadline{frame_deadline_ms};
  std::uint8_t len_bytes[4];
  const std::size_t got =
      read_exact(fd, len_bytes, sizeof(len_bytes), deadline);
  if (got == 0) return false;  // clean EOF at a frame boundary
  proto_require(got == sizeof(len_bytes),
                "serve: truncated frame (EOF inside the length prefix)");
  const std::uint32_t len = load_le32(len_bytes);
  proto_require(len > 0, "serve: zero-length frame");
  proto_require(len <= max_frame_bytes,
                "serve: frame length exceeds the cap");
  payload.resize(len);
  proto_require(read_exact(fd, payload.data(), len, deadline) == len,
                "serve: truncated frame (EOF inside the payload)");
  return true;
}

void write_frame(int fd,
                 std::span<const std::span<const std::uint8_t>> parts,
                 std::uint32_t max_frame_bytes) {
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  require(total >= 1 && total <= max_frame_bytes,
          "serve: write_frame payload outside [1, max_frame_bytes]");
  // The prefix and the parts go out as the iovecs of sendmsg calls, so
  // framing never copies a payload or touches the heap. Piece 0 is the
  // prefix, piece i the part i - 1; (next, done) is the first unsent byte.
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>(total >> (8 * i));
  }
  const auto piece = [&](std::size_t i) {
    return i == 0 ? std::span<const std::uint8_t>(prefix) : parts[i - 1];
  };
  const std::size_t pieces = parts.size() + 1;
  std::size_t next = 0;
  std::size_t done = 0;
  iovec iov[kIovBatch];
  for (;;) {
    while (next < pieces && done == piece(next).size()) {
      ++next;
      done = 0;
    }
    if (next == pieces) return;
    int count = 0;
    for (std::size_t i = next; i < pieces && count < kIovBatch; ++i) {
      const auto p = piece(i).subspan(i == next ? done : 0);
      if (p.empty()) continue;
      iov[count++] = {const_cast<std::uint8_t*>(p.data()), p.size()};
    }
    // MSG_NOSIGNAL: a peer that closed before the reply must yield EPIPE,
    // not a process-killing SIGPIPE. sendmsg() only accepts sockets, so
    // plain stream fds (pipes in the unit tests) fall back to writev().
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(count);
    ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::writev(fd, iov, count);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError("serve: write failed: " +
                          std::string(std::strerror(errno)));
    }
    // Skip what the write consumed; the loop head skips finished pieces.
    for (auto left = static_cast<std::size_t>(w); left > 0;) {
      const std::size_t take = std::min(left, piece(next).size() - done);
      done += take;
      left -= take;
      if (done == piece(next).size()) {
        ++next;
        done = 0;
      }
    }
  }
}

#else  // !QC_HAVE_SOCKETS: encoding still works; fd framing is unavailable.

bool read_frame(int, std::vector<std::uint8_t>&, std::uint32_t,
                std::uint32_t) {
  throw Error("serve: socket IO is not available on this platform");
}

void write_frame(int, std::span<const std::span<const std::uint8_t>>,
                 std::uint32_t) {
  throw Error("serve: socket IO is not available on this platform");
}

#endif

}  // namespace qc::serve
