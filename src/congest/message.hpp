#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

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
/// Storage is small-buffer optimized: the first kInlineFields fields live
/// inside the object (CONGEST messages are bandwidth-bounded at O(log n)
/// bits, and real protocols pack a handful of ids/distances per message, so
/// inline capacity covers virtually all traffic); only a message with more
/// fields spills to one heap block. Constructing, copying, moving and
/// delivering an un-spilled message therefore never touches the heap —
/// the invariant the network's zero-allocation delivery path relies on
/// (see docs/performance.md). Equality is field-wise and independent of
/// where the fields are stored. size_bits() is a cached running total, not
/// a scan.
class Message {
 public:
  /// Fields stored inline before any heap spill. Widths are 1..64 bits, so
  /// seven fields can hold several full node ids / distances per message —
  /// more than any protocol in this repo queues on one edge.
  static constexpr std::size_t kInlineFields = 7;

  Message() = default;

  Message(const Message& other)
      : count_(other.count_),
        bits_(other.bits_),
        values_(other.values_),
        widths_(other.widths_),
        spill_(other.spill_ ? std::make_unique<Spill>(*other.spill_)
                            : nullptr) {}

  Message& operator=(const Message& other) {
    if (this == &other) return *this;
    count_ = other.count_;
    bits_ = other.bits_;
    values_ = other.values_;
    widths_ = other.widths_;
    if (other.spill_ == nullptr) {
      spill_.reset();
    } else if (spill_ != nullptr) {
      *spill_ = *other.spill_;  // reuse the existing block's capacity
    } else {
      spill_ = std::make_unique<Spill>(*other.spill_);
    }
    return *this;
  }

  /// Moves reset the source to an empty message, so a moved-from Message
  /// is indistinguishable from a fresh one when it is reused.
  Message(Message&& other) noexcept
      : count_(other.count_),
        bits_(other.bits_),
        values_(other.values_),
        widths_(other.widths_),
        spill_(std::move(other.spill_)) {
    other.count_ = 0;
    other.bits_ = 0;
  }

  Message& operator=(Message&& other) noexcept {
    if (this == &other) return *this;
    count_ = other.count_;
    bits_ = other.bits_;
    values_ = other.values_;
    widths_ = other.widths_;
    spill_ = std::move(other.spill_);
    other.count_ = 0;
    other.bits_ = 0;
    return *this;
  }

  ~Message() = default;

  /// Appends a field. `bits` must be in [1, 64] and `value` must fit.
  Message& push(std::uint64_t value, std::uint32_t bits) {
    require(bits >= 1 && bits <= 64, "Message::push: bits must be in [1,64]");
    require(bits == 64 || value < (1ULL << bits),
            "Message::push: value does not fit in declared width");
    if (count_ < kInlineFields) {
      values_[count_] = value;
      widths_[count_] = static_cast<std::uint8_t>(bits);
    } else {
      if (spill_ == nullptr) spill_ = std::make_unique<Spill>();
      spill_->values.push_back(value);
      spill_->widths.push_back(static_cast<std::uint8_t>(bits));
    }
    ++count_;
    bits_ += bits;
    return *this;
  }

  /// Removes every field but keeps any spill block's capacity, so a
  /// message reused as a decode target stays allocation-free once warmed
  /// — unlike move-from, which steals the spill block, or
  /// `*this = Message{}`, which frees it.
  Message& clear() {
    count_ = 0;
    bits_ = 0;
    if (spill_ != nullptr) {
      spill_->values.clear();
      spill_->widths.clear();
    }
    return *this;
  }

  std::uint64_t field(std::size_t i) const {
    require(i < count_, "Message::field: index out of range");
    return value_at(i);
  }

  /// Declared width of field `i` in bits.
  std::uint32_t field_bits(std::size_t i) const {
    require(i < count_, "Message::field_bits: index out of range");
    return width_at(i);
  }

  /// Overwrites field `i`; the new value must fit the declared width.
  /// Used by the fault layer to flip bits without changing the layout.
  void set_field(std::size_t i, std::uint64_t value) {
    require(i < count_, "Message::set_field: index out of range");
    const std::uint32_t w = width_at(i);
    require(w == 64 || value < (1ULL << w),
            "Message::set_field: value does not fit in declared width");
    if (i < kInlineFields) {
      values_[i] = value;
    } else {
      spill_->values[i - kInlineFields] = value;
    }
  }

  /// The message clipped to at most `max_bits`: leading fields are kept
  /// whole while they fit, the first field that does not fit is narrowed
  /// to the remaining bits (low bits of its value), and everything after
  /// it is discarded. This is BandwidthPolicy::kTruncate's wire behavior.
  Message truncated(std::uint32_t max_bits) const {
    Message out;
    std::uint32_t used = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      const std::uint32_t w = width_at(i);
      if (used + w <= max_bits) {
        out.push(value_at(i), w);
        used += w;
        continue;
      }
      // Narrow the first overflowing field to the leftover budget. A kept
      // field satisfied used + w <= max_bits, so here rem < w <= 64: the
      // shift below is always defined (no rem >= 64 case exists).
      const std::uint32_t rem = max_bits - used;
      if (rem > 0) out.push(value_at(i) & ((1ULL << rem) - 1), rem);
      break;
    }
    return out;
  }

  std::size_t num_fields() const { return count_; }

  /// Total width in bits; a running total maintained by push(), O(1).
  std::uint32_t size_bits() const { return bits_; }

  /// Field-wise equality (values and widths); independent of whether the
  /// operands spilled to the heap or of any previously moved-out state.
  bool operator==(const Message& other) const {
    if (count_ != other.count_ || bits_ != other.bits_) return false;
    for (std::size_t i = 0; i < count_; ++i) {
      if (value_at(i) != other.value_at(i) || width_at(i) != other.width_at(i))
        return false;
    }
    return true;
  }

 private:
  struct Spill {
    std::vector<std::uint64_t> values;
    std::vector<std::uint8_t> widths;
  };

  // Unchecked accessors for indices already validated against count_.
  std::uint64_t value_at(std::size_t i) const {
    return i < kInlineFields ? values_[i] : spill_->values[i - kInlineFields];
  }
  std::uint32_t width_at(std::size_t i) const {
    return i < kInlineFields ? widths_[i] : spill_->widths[i - kInlineFields];
  }

  std::uint32_t count_ = 0;
  std::uint32_t bits_ = 0;
  std::array<std::uint64_t, kInlineFields> values_{};
  std::array<std::uint8_t, kInlineFields> widths_{};
  std::unique_ptr<Spill> spill_;
};

}  // namespace qc::congest
