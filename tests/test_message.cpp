// The small-buffer-optimized congest::Message: wire-format semantics
// (push/field/set_field/truncated/equality) must be exactly those of the
// original vector-backed representation, with no heap traffic until a
// message exceeds the inline field capacity. The allocation probe replaces
// this binary's global allocator, so the no-spill-no-allocation invariant
// the delivery hot path relies on is asserted directly.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "congest/message.hpp"
#include "util/alloc_probe.hpp"
#include "util/error.hpp"

QC_INSTALL_ALLOC_PROBE();

namespace qc::congest {
namespace {

std::uint64_t allocs() { return qc::alloc_probe_count().load(); }

TEST(MessageSbo, InlineCapacityMessagesNeverAllocate) {
  const std::uint64_t before = allocs();
  Message m;
  for (std::size_t i = 0; i < Message::kInlineFields; ++i) {
    m.push(i, 8);
  }
  Message copy = m;
  Message moved = std::move(copy);
  const std::uint64_t after = allocs();
  EXPECT_EQ(moved, m);
  EXPECT_EQ(after, before);
}

TEST(MessageSbo, SpillBeyondInlineCapacity) {
  Message m;
  const std::size_t fields = 3 * Message::kInlineFields + 2;
  std::uint32_t expected_bits = 0;
  for (std::size_t i = 0; i < fields; ++i) {
    const std::uint32_t w = 1 + static_cast<std::uint32_t>(i % 3);
    m.push(i % 2, w);
    expected_bits += w;
  }
  ASSERT_EQ(m.num_fields(), fields);
  EXPECT_EQ(m.size_bits(), expected_bits);
  for (std::size_t i = 0; i < fields; ++i) {
    EXPECT_EQ(m.field(i), i % 2) << i;
    EXPECT_EQ(m.field_bits(i), 1 + static_cast<std::uint32_t>(i % 3)) << i;
  }
  const std::uint64_t before = allocs();
  Message m2;
  for (std::size_t i = 0; i <= Message::kInlineFields; ++i) m2.push(0, 1);
  EXPECT_GT(allocs(), before) << "field " << Message::kInlineFields + 1
                              << " must spill to the heap";
}

TEST(MessageSbo, CopyAndMovePreserveSpilledFields) {
  Message m;
  for (std::size_t i = 0; i < Message::kInlineFields + 4; ++i) {
    m.push(i, 16);
  }
  Message copy = m;
  EXPECT_EQ(copy, m);
  copy.set_field(Message::kInlineFields + 2, 999);  // spilled index
  EXPECT_EQ(copy.field(Message::kInlineFields + 2), 999u);
  EXPECT_EQ(m.field(Message::kInlineFields + 2), Message::kInlineFields + 2)
      << "copies must not share spill storage";

  Message moved = std::move(m);
  EXPECT_EQ(moved.num_fields(), Message::kInlineFields + 4);
  EXPECT_EQ(moved.field(Message::kInlineFields + 3),
            Message::kInlineFields + 3);
  // Moved-from messages reset to empty and are freely reusable.
  EXPECT_EQ(m.num_fields(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(m.size_bits(), 0u);
  EXPECT_EQ(m, Message{});
  m.push(7, 3);
  EXPECT_EQ(m.field(0), 7u);
}

TEST(MessageSbo, EqualityIsFieldWiseNotRepresentational) {
  Message a;
  Message b;
  a.push(5, 4).push(9, 8);
  b.push(5, 4).push(9, 8);
  EXPECT_EQ(a, b);
  Message widened;
  widened.push(5, 5).push(9, 8);  // same values, different declared width
  EXPECT_FALSE(a == widened);
  Message shorter;
  shorter.push(5, 4);
  EXPECT_FALSE(a == shorter);
}

TEST(MessageSbo, CachedSizeBitsMatchesFieldSum) {
  Message m;
  m.push(1, 1).push(~0ULL, 64).push(100, 7);
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < m.num_fields(); ++i) sum += m.field_bits(i);
  EXPECT_EQ(m.size_bits(), sum);
  m.set_field(1, 42);  // set_field keeps layout, so the cache stays valid
  EXPECT_EQ(m.size_bits(), sum);
  const Message t = m.truncated(30);
  std::uint32_t tsum = 0;
  for (std::size_t i = 0; i < t.num_fields(); ++i) tsum += t.field_bits(i);
  EXPECT_EQ(t.size_bits(), tsum);
  EXPECT_EQ(t.size_bits(), 30u);
}

TEST(MessageSbo, SetFieldValidatesWidthOnSpilledFields) {
  Message m;
  for (std::size_t i = 0; i < Message::kInlineFields + 1; ++i) m.push(0, 4);
  EXPECT_THROW(m.set_field(Message::kInlineFields, 16), InvalidArgumentError);
  m.set_field(Message::kInlineFields, 15);
  EXPECT_EQ(m.field(Message::kInlineFields), 15u);
}

TEST(MessageTruncate, FieldExactlyFillingBudgetIsKeptWhole) {
  Message m;
  m.push(0xAB, 8).push(0xCD, 8).push(0xEF, 8);
  const Message t = m.truncated(16);
  ASSERT_EQ(t.num_fields(), 2u);
  EXPECT_EQ(t.field(0), 0xABu);
  EXPECT_EQ(t.field(1), 0xCDu);
  EXPECT_EQ(t.field_bits(1), 8u);
  EXPECT_EQ(t.size_bits(), 16u);
  // Budget equal to the whole message: bit-identical, nothing clipped.
  EXPECT_EQ(m.truncated(24), m);
  EXPECT_EQ(m.truncated(1000), m);
}

TEST(MessageTruncate, SingleSixtyFourBitFieldNarrows) {
  Message m;
  m.push(~0ULL, 64);
  const Message t = m.truncated(10);
  ASSERT_EQ(t.num_fields(), 1u);
  EXPECT_EQ(t.field_bits(0), 10u);
  EXPECT_EQ(t.field(0), (1ULL << 10) - 1);
  const Message t63 = m.truncated(63);
  ASSERT_EQ(t63.num_fields(), 1u);
  EXPECT_EQ(t63.field_bits(0), 63u);
  EXPECT_EQ(t63.field(0), (1ULL << 63) - 1);
  EXPECT_EQ(m.truncated(64), m);
}

TEST(MessageTruncate, ZeroBudgetYieldsEmptyMessage) {
  Message m;
  m.push(3, 2).push(1, 1);
  const Message t = m.truncated(0);
  EXPECT_EQ(t.num_fields(), 0u);
  EXPECT_EQ(t.size_bits(), 0u);
  EXPECT_EQ(t, Message{});
  EXPECT_EQ(Message{}.truncated(0), Message{});
}

TEST(MessageTruncate, ClipsAcrossTheInlineBoundary) {
  Message m;
  const std::size_t fields = Message::kInlineFields + 3;
  for (std::size_t i = 0; i < fields; ++i) m.push(0x1F, 5);
  // Keep one field past the inline capacity whole, then narrow the next.
  const auto keep = static_cast<std::uint32_t>(Message::kInlineFields + 1);
  const Message t = m.truncated(5 * keep + 2);
  ASSERT_EQ(t.num_fields(), keep + 1);
  EXPECT_EQ(t.field_bits(keep), 2u);
  EXPECT_EQ(t.field(keep), 0x1Fu & 0b11u);
  EXPECT_EQ(t.size_bits(), 5 * keep + 2);
}

TEST(MessageClear, RemovesFieldsAndKeepsSpillCapacity) {
  Message m;
  const std::size_t fields = Message::kInlineFields + 4;
  for (std::size_t i = 0; i < fields; ++i) m.push(i, 9);
  ASSERT_EQ(m.num_fields(), fields);

  m.clear();
  EXPECT_EQ(m.num_fields(), 0u);
  EXPECT_EQ(m.size_bits(), 0u);
  EXPECT_EQ(m, Message{});

  // Refilling up to the previous spill depth reuses the retained block:
  // the shard decode loop leans on this to stay allocation-free once a
  // reused frame's messages are warmed.
  const std::uint64_t before = allocs();
  for (std::size_t i = 0; i < fields; ++i) m.push(fields - i, 7);
  const std::uint64_t after = allocs();
  EXPECT_EQ(after, before);
  ASSERT_EQ(m.num_fields(), fields);
  EXPECT_EQ(m.field(0), fields);
  EXPECT_EQ(m.field_bits(fields - 1), 7u);

  // clear() is not move-from: a cleared message is immediately reusable.
  m.clear();
  EXPECT_EQ(m.push(1, 1).num_fields(), 1u);
}

}  // namespace
}  // namespace qc::congest
