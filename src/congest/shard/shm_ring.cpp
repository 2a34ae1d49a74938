#include "congest/shard/shm_ring.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>
#include <thread>

#if defined(__linux__)
#define QC_HAVE_FUTEX 1
#include <linux/futex.h>
#include <sys/syscall.h>
#include <ctime>
#else
#define QC_HAVE_FUTEX 0
#include <chrono>
#endif

#include "congest/shard/partition.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"

namespace qc::congest::shard {

namespace {

using serve::ProtocolError;

// One short spin before sleeping. On a multi-core host a peer that is
// about to publish usually does so within a few hundred cycles, so a
// small spin saves two syscalls; on a single-core host spinning only
// steals the cycles the peer needs, so we go straight to the futex.
int spin_budget() {
  static const int budget =
      std::thread::hardware_concurrency() > 1 ? 256 : 1;
  return budget;
}

#if QC_HAVE_FUTEX

void futex_wait(const std::atomic<std::uint32_t>* word, std::uint32_t expect,
                int timeout_ms) {
  timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
  // Spurious wakeups, EAGAIN (value already changed) and EINTR are all
  // fine: every caller re-checks the word in a loop.
  ::syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(word),
            FUTEX_WAIT, expect, &ts, nullptr, 0);
}

void futex_wake_all(const std::atomic<std::uint32_t>* word) {
  ::syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(word),
            FUTEX_WAKE, INT_MAX, nullptr, nullptr, 0);
}

#else  // !QC_HAVE_FUTEX: sleep-poll with the same contract.

void futex_wait(const std::atomic<std::uint32_t>* word, std::uint32_t expect,
                int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (word->load(std::memory_order_acquire) == expect &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void futex_wake_all(const std::atomic<std::uint32_t>*) {}

#endif

std::size_t page_round(std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

// ---- ShmArena -------------------------------------------------------------

ShmArena::ShmArena(std::size_t bytes) : size_(page_round(bytes)) {
  void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw Error("shard: mmap of the shared transport arena failed: " +
                std::string(std::strerror(errno)));
  }
  base_ = static_cast<std::uint8_t*>(p);
}

ShmArena::~ShmArena() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

ShmArena::ShmArena(ShmArena&& other) noexcept
    : base_(other.base_), size_(other.size_) {
  other.base_ = nullptr;
  other.size_ = 0;
}

ShmArena& ShmArena::operator=(ShmArena&& other) noexcept {
  if (this == &other) return *this;
  if (base_ != nullptr) ::munmap(base_, size_);
  base_ = other.base_;
  size_ = other.size_;
  other.base_ = nullptr;
  other.size_ = 0;
  return *this;
}

// ---- ShmChannel -----------------------------------------------------------

std::size_t ShmChannel::bytes_needed(std::size_t capacity) {
  return kHeaderBytes + capacity;
}

ShmChannel::ShmChannel(std::uint8_t* mem, std::size_t capacity)
    : hdr_(reinterpret_cast<Header*>(mem)),
      payload_(mem + kHeaderBytes),
      capacity_(capacity) {}

bool ShmChannel::idle() const {
  return hdr_->doorbell.load(std::memory_order_acquire) ==
         hdr_->consumed.load(std::memory_order_acquire);
}

std::span<std::uint8_t> ShmChannel::buffer() {
  return {payload_, capacity_};
}

void ShmChannel::publish_frame(std::size_t len) {
  require(idle(), "ShmChannel::publish_frame: previous frame not consumed");
  require(len <= capacity_, "ShmChannel::publish_frame: frame exceeds slot");
  hdr_->len = static_cast<std::uint32_t>(len);
  hdr_->kind = static_cast<std::uint32_t>(ShmSignal::kFrame);
  hdr_->doorbell.fetch_add(1, std::memory_order_release);
  futex_wake_all(&hdr_->doorbell);
}

void ShmChannel::publish_signal(ShmSignal kind) {
  require(try_publish_signal(kind),
          "ShmChannel::publish_signal: previous frame not consumed");
}

bool ShmChannel::try_publish_signal(ShmSignal kind) {
  if (!idle()) return false;
  hdr_->len = 0;
  hdr_->kind = static_cast<std::uint32_t>(kind);
  hdr_->doorbell.fetch_add(1, std::memory_order_release);
  futex_wake_all(&hdr_->doorbell);
  return true;
}

ShmSignal ShmChannel::poll() const {
  if (idle()) return ShmSignal::kNone;
  const std::uint32_t kind = hdr_->kind;
  if (kind != static_cast<std::uint32_t>(ShmSignal::kFrame) &&
      kind != static_cast<std::uint32_t>(ShmSignal::kSocket)) {
    throw ProtocolError("shard: shm channel publication has an unknown kind");
  }
  return static_cast<ShmSignal>(kind);
}

ShmSignal ShmChannel::wait(int timeout_ms) const {
  for (int i = 0; i < spin_budget(); ++i) {
    const ShmSignal s = poll();
    if (s != ShmSignal::kNone) return s;
  }
  const std::uint32_t seen = hdr_->consumed.load(std::memory_order_acquire);
  // Wait for doorbell != consumed. The doorbell is the futex word; if it
  // already moved past `seen` the wait returns immediately.
  futex_wait(&hdr_->doorbell, seen, timeout_ms);
  return poll();
}

std::span<const std::uint8_t> ShmChannel::frame() const {
  const std::uint32_t len = hdr_->len;
  if (len > capacity_) {
    throw ProtocolError(
        "shard: shm channel frame length exceeds the segment capacity");
  }
  return {payload_, len};
}

void ShmChannel::release() {
  hdr_->consumed.fetch_add(1, std::memory_order_release);
  futex_wake_all(&hdr_->consumed);
}

// ---- MeshRing -------------------------------------------------------------

std::size_t MeshRing::slot_stride(std::size_t capacity) {
  constexpr std::size_t kAlign = alignof(SlotHeader);
  return (kSlotHeaderBytes + capacity + kAlign - 1) / kAlign * kAlign;
}

std::size_t MeshRing::bytes_needed(std::size_t capacity) {
  return 2 * slot_stride(capacity);
}

MeshRing::MeshRing(std::uint8_t* mem, std::size_t capacity)
    : base_(mem), capacity_(capacity) {}

MeshRing::SlotHeader* MeshRing::slot_hdr(std::uint32_t i) const {
  return reinterpret_cast<SlotHeader*>(base_ + i * slot_stride(capacity_));
}

std::uint8_t* MeshRing::slot_payload(std::uint32_t i) const {
  return base_ + i * slot_stride(capacity_) + kSlotHeaderBytes;
}

std::span<std::uint8_t> MeshRing::produce_buffer(std::uint32_t round) {
  return {slot_payload(round & 1), capacity_};
}

void MeshRing::publish(std::uint32_t round, std::size_t len) {
  require(len <= capacity_, "MeshRing::publish: batch exceeds the segment");
  SlotHeader* h = slot_hdr(round & 1);
  h->len = static_cast<std::uint32_t>(len);
  // The release store of the round stamp is the publication; consumers
  // only look after the coordinator's barrier, so no wake is needed.
  h->round.store(round, std::memory_order_release);
}

std::span<const std::uint8_t> MeshRing::consume(std::uint32_t round) const {
  const SlotHeader* h = slot_hdr(round & 1);
  const std::uint32_t stamp = h->round.load(std::memory_order_acquire);
  if (stamp != round) {
    throw ProtocolError(
        "shard: mesh segment carries the wrong round (stale or torn "
        "publication)");
  }
  const std::uint32_t len = h->len;
  if (len > capacity_) {
    throw ProtocolError(
        "shard: mesh segment length exceeds the segment capacity");
  }
  return {slot_payload(round & 1), len};
}

// ---- plan_layout ----------------------------------------------------------

ShmLayout plan_layout(const graph::Graph& g, const ShardAssignment& asn,
                      bool collect_events) {
  constexpr std::size_t kAlign = 64;
  const std::uint32_t W = asn.shards;
  ShmLayout l;
  l.shards = W;
  l.c2w.resize(W);
  l.w2c.resize(W);
  l.mesh.assign(static_cast<std::size_t>(W) * W, {});

  std::size_t off = 0;
  auto place = [&off](std::size_t bytes) {
    const std::size_t at = off;
    off = (off + bytes + kAlign - 1) / kAlign * kAlign;
    return at;
  };

  // Directed boundary arc counts per shard pair size the mesh rings, and
  // each shard's owned in-degree (every arc into one of its nodes) sizes
  // its w2c event headroom.
  std::vector<std::size_t> arcs(static_cast<std::size_t>(W) * W, 0);
  std::vector<std::size_t> owned_in_arcs(W, 0);
  for (std::uint32_t s = 0; s < W; ++s) {
    for (NodeId u = asn.begin(s); u < asn.end(s); ++u) {
      for (const NodeId v : g.neighbors(u)) {
        const std::uint32_t t = asn.owner(v);
        if (s != t) ++arcs[static_cast<std::size_t>(s) * W + t];
        ++owned_in_arcs[t];
      }
    }
  }

  for (std::uint32_t s = 0; s < W; ++s) {
    l.c2w[s] = {place(ShmChannel::bytes_needed(kControlChannelBytes)),
                kControlChannelBytes};
    // When events ship, a worker's round_end carries up to one event per
    // delivered arc; inbound boundary arcs are the part a remote sender
    // feeds, owned-internal arcs the rest. Budgeting the worker's full
    // owned in-degree makes the slot a bound, not an estimate.
    std::size_t w2c_cap = kControlChannelBytes;
    if (collect_events) w2c_cap += owned_in_arcs[s] * kEventBytesPerArc;
    l.w2c[s] = {place(ShmChannel::bytes_needed(w2c_cap)), w2c_cap};
  }

  for (std::uint32_t s = 0; s < W; ++s) {
    for (std::uint32_t t = 0; t < W; ++t) {
      const std::size_t a = arcs[static_cast<std::size_t>(s) * W + t];
      if (a == 0) continue;
      const std::size_t cap = kMeshFrameOverhead + a * kMeshBytesPerArc;
      l.mesh[static_cast<std::size_t>(s) * W + t] = {
          place(MeshRing::bytes_needed(cap)), cap};
    }
  }

  l.total_bytes = off;
  return l;
}

}  // namespace qc::congest::shard
