#pragma once

#include <array>
#include <cstdint>
#include <type_traits>

#include "util/error.hpp"

namespace qc::congest {

/// A single CONGEST message: an ordered list of unsigned fields, each with
/// an explicit bit width. The size of a message is the sum of its field
/// widths; the network enforces that at most one message crosses each edge
/// per direction per round and that its size does not exceed the model
/// bandwidth (bw = O(log n) bits).
///
/// Carrying explicit widths (instead of, say, always 64-bit words) is what
/// makes the bandwidth constraint *checkable*: a protocol that tries to
/// smuggle too much information through an edge fails loudly.
///
/// A message is a fixed-capacity value: at most kMaxFields fields, stored
/// inside the object. A CONGEST message carries O(log n) bits, and the
/// protocols here pack a handful of ids/distances into one, so the cap is
/// a model bound, not a tuning knob — a push past it throws. Constructing,
/// copying and delivering a message never touches the heap, which the
/// network's zero-allocation delivery path relies on, and the shard
/// backend's per-arc frame bound (shard/codec.hpp) is exact. The type
/// is trivially copyable: moving is copying, so a moved-from message keeps
/// its fields — clear() it before reusing it. Equality is field-wise.
/// size_bits() is a cached running total, not a scan.
class Message {
 public:
  /// Most fields one message holds. Widths are 1..64 bits, so seven
  /// fields hold several full node ids / distances; the protocols in this
  /// repo send at most four and serialize at most five.
  static constexpr std::size_t kMaxFields = 7;

  /// Appends a field. `bits` must be in [1, 64], `value` must fit, and the
  /// message must have fewer than kMaxFields fields.
  Message& push(std::uint64_t value, std::uint32_t bits) {
    require(bits >= 1 && bits <= 64, "Message::push: bits must be in [1,64]");
    require(bits == 64 || value < (1ULL << bits),
            "Message::push: value does not fit in declared width");
    require(count_ < kMaxFields,
            "Message::push: a CONGEST message carries O(log n) bits; more "
            "than Message::kMaxFields fields exceeds the model's limit");
    values_[count_] = value;
    widths_[count_] = static_cast<std::uint8_t>(bits);
    ++count_;
    bits_ += bits;
    return *this;
  }

  /// Removes every field.
  Message& clear() {
    count_ = 0;
    bits_ = 0;
    return *this;
  }

  std::uint64_t field(std::size_t i) const {
    require(i < count_, "Message::field: index out of range");
    return values_[i];
  }

  /// Declared width of field `i` in bits.
  std::uint32_t field_bits(std::size_t i) const {
    require(i < count_, "Message::field_bits: index out of range");
    return widths_[i];
  }

  /// Overwrites field `i`; the new value must fit the declared width.
  /// Used by the fault layer to flip bits without changing the layout.
  void set_field(std::size_t i, std::uint64_t value) {
    require(i < count_, "Message::set_field: index out of range");
    const std::uint32_t w = widths_[i];
    require(w == 64 || value < (1ULL << w),
            "Message::set_field: value does not fit in declared width");
    values_[i] = value;
  }

  /// The message clipped to at most `max_bits`: leading fields are kept
  /// whole while they fit, the first field that does not fit is narrowed
  /// to the remaining bits (low bits of its value), and everything after
  /// it is discarded. This is BandwidthPolicy::kTruncate's wire behavior.
  Message truncated(std::uint32_t max_bits) const {
    Message out;
    std::uint32_t used = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      const std::uint32_t w = widths_[i];
      if (used + w <= max_bits) {
        out.push(values_[i], w);
        used += w;
        continue;
      }
      // Narrow the first overflowing field to the leftover budget. A kept
      // field satisfied used + w <= max_bits, so here rem < w <= 64: the
      // shift below is always defined (no rem >= 64 case exists).
      const std::uint32_t rem = max_bits - used;
      if (rem > 0) out.push(values_[i] & ((1ULL << rem) - 1), rem);
      break;
    }
    return out;
  }

  std::size_t num_fields() const { return count_; }

  /// Total width in bits; a running total maintained by push(), O(1).
  std::uint32_t size_bits() const { return bits_; }

  /// Field-wise equality (values and widths); slots past num_fields() are
  /// ignored, so a cleared or truncated message compares by content.
  bool operator==(const Message& other) const {
    if (count_ != other.count_ || bits_ != other.bits_) return false;
    for (std::size_t i = 0; i < count_; ++i) {
      if (values_[i] != other.values_[i] || widths_[i] != other.widths_[i])
        return false;
    }
    return true;
  }

 private:
  std::uint32_t count_ = 0;
  std::uint32_t bits_ = 0;
  std::array<std::uint64_t, kMaxFields> values_{};
  std::array<std::uint8_t, kMaxFields> widths_{};
};

static_assert(std::is_trivially_copyable_v<Message>,
              "Message is a fixed-capacity value type");

}  // namespace qc::congest
