#include "congest/fault.hpp"

namespace qc::congest {

namespace {

// splitmix64 finalizer: the same mixer Rng's seeding uses, applied here as
// a *stateless* hash so fault rolls are independent of evaluation order.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Distinct salts keep the drop roll, the corrupt roll, and the corrupt
// target selection pairwise independent for the same (round, from, to).
constexpr std::uint64_t kDropSalt = 0xd409f0ull;
constexpr std::uint64_t kCorruptSalt = 0xc0994ull;
constexpr std::uint64_t kTargetSalt = 0x7a86e7ull;

std::uint64_t roll(std::uint64_t seed, std::uint64_t salt, std::uint32_t round,
                   graph::NodeId from, graph::NodeId to) {
  std::uint64_t h = mix(seed ^ mix(salt));
  h = mix(h ^ (static_cast<std::uint64_t>(round) << 32 | from));
  return mix(h ^ to);
}

// Uniform double in [0, 1) from a 64-bit hash (top 53 bits).
double unit(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

}  // namespace

bool FaultPlan::crashed(graph::NodeId v, std::uint32_t round) const {
  for (const auto& w : crashes) {
    if (w.node != v) continue;
    if (round >= w.crash_round &&
        (w.recover_round == 0 || round < w.recover_round)) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::drops(std::uint32_t round, graph::NodeId from,
                      graph::NodeId to) const {
  if (drop_probability <= 0.0) return false;
  return unit(roll(seed, kDropSalt, round, from, to)) < drop_probability;
}

bool FaultPlan::corrupts(std::uint32_t round, graph::NodeId from,
                         graph::NodeId to) const {
  if (corrupt_probability <= 0.0) return false;
  return unit(roll(seed, kCorruptSalt, round, from, to)) < corrupt_probability;
}

void FaultPlan::corrupt_in_place(Message& msg, std::uint32_t round,
                                 graph::NodeId from, graph::NodeId to) const {
  if (msg.num_fields() == 0) return;
  const std::uint64_t h = roll(seed, kTargetSalt, round, from, to);
  const std::size_t field = static_cast<std::size_t>(h % msg.num_fields());
  const std::uint32_t width = msg.field_bits(field);
  const std::uint32_t bit = static_cast<std::uint32_t>(mix(h) % width);
  msg.set_field(field, msg.field(field) ^ (1ULL << bit));
}

FaultPlan FaultPlan::for_attempt(std::uint32_t attempt) const {
  if (attempt == 0) return *this;
  FaultPlan plan = *this;
  plan.seed = mix(seed + attempt);
  return plan;
}

CrashIndex::CrashIndex(const FaultPlan& plan, std::uint32_t n)
    : windows_(plan.crashes) {
  if (windows_.empty()) return;  // down_ stays empty; down() is always false
  down_.assign(n, 0);
  std::vector<std::uint8_t> seen(n, 0);
  for (const auto& w : windows_) {
    if (!seen[w.node]) {
      seen[w.node] = 1;
      touched_.push_back(w.node);
    }
  }
}

void CrashIndex::refresh(std::uint32_t round) {
  for (const graph::NodeId v : touched_) down_[v] = 0;
  for (const auto& w : windows_) {
    if (round >= w.crash_round &&
        (w.recover_round == 0 || round < w.recover_round)) {
      down_[w.node] = 1;
    }
  }
}

std::uint32_t CrashIndex::down_in(graph::NodeId begin,
                                  graph::NodeId end) const {
  std::uint32_t count = 0;
  for (const graph::NodeId v : touched_) {
    if (v >= begin && v < end && down_[v] != 0) ++count;
  }
  return count;
}

}  // namespace qc::congest
