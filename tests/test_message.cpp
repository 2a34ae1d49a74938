// The fixed-capacity congest::Message: wire-format semantics
// (push/field/set_field/truncated/equality), the Message::kMaxFields cap
// that stands for the CONGEST bandwidth bound, and value semantics with no
// heap traffic. The allocation probe replaces this binary's global
// allocator, so the no-allocation invariant the delivery hot path relies
// on is asserted directly.

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "congest/message.hpp"
#include "util/alloc_probe.hpp"
#include "util/error.hpp"

QC_INSTALL_ALLOC_PROBE();

namespace qc::congest {
namespace {

std::uint64_t allocs() { return qc::alloc_probe_count().load(); }

static_assert(std::is_trivially_copyable_v<Message>);

TEST(MessageValue, FullCapacityMessagesNeverAllocate) {
  const std::uint64_t before = allocs();
  Message m;
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) {
    m.push(i, 8);
  }
  Message copy = m;
  Message moved = std::move(copy);
  const std::uint64_t after = allocs();
  EXPECT_EQ(moved, m);
  EXPECT_EQ(after, before);
}

TEST(MessageCap, PushPastTheCapThrowsAndLeavesTheMessageIntact) {
  Message m;
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) m.push(i, 64);
  ASSERT_EQ(m.num_fields(), Message::kMaxFields);
  const Message before = m;
  EXPECT_THROW(m.push(0, 1), Error);
  EXPECT_EQ(m, before);
  EXPECT_EQ(m.size_bits(), 64 * Message::kMaxFields);
  // clear() frees the capacity again.
  m.clear();
  EXPECT_EQ(m.push(1, 1).num_fields(), 1u);
}

TEST(MessageCap, CopiesAreIndependentValues) {
  Message m;
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) m.push(i, 16);
  Message copy = m;
  EXPECT_EQ(copy, m);
  copy.set_field(Message::kMaxFields - 1, 999);
  EXPECT_EQ(copy.field(Message::kMaxFields - 1), 999u);
  EXPECT_EQ(m.field(Message::kMaxFields - 1), Message::kMaxFields - 1);
}

TEST(MessageValue, EqualityIsFieldWiseNotRepresentational) {
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

TEST(MessageValue, CachedSizeBitsMatchesFieldSum) {
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

TEST(MessageValue, SetFieldValidatesWidthOnTheLastField) {
  Message m;
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) m.push(0, 4);
  const std::size_t last = Message::kMaxFields - 1;
  EXPECT_THROW(m.set_field(last, 16), InvalidArgumentError);
  m.set_field(last, 15);
  EXPECT_EQ(m.field(last), 15u);
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

TEST(MessageTruncate, ClipsAFullCapacityMessage) {
  Message m;
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) m.push(0x1F, 5);
  // Keep all but the last two fields whole, then narrow the next.
  const auto keep = static_cast<std::uint32_t>(Message::kMaxFields - 2);
  const Message t = m.truncated(5 * keep + 2);
  ASSERT_EQ(t.num_fields(), keep + 1);
  EXPECT_EQ(t.field_bits(keep), 2u);
  EXPECT_EQ(t.field(keep), 0x1Fu & 0b11u);
  EXPECT_EQ(t.size_bits(), 5 * keep + 2);
}

TEST(MessageClear, RemovesFieldsAndIsImmediatelyReusable) {
  Message m;
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) m.push(i, 9);
  m.clear();
  EXPECT_EQ(m.num_fields(), 0u);
  EXPECT_EQ(m.size_bits(), 0u);
  EXPECT_EQ(m, Message{});
  const std::uint64_t before = allocs();
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) m.push(i + 1, 7);
  EXPECT_EQ(allocs(), before);
  EXPECT_EQ(m.field(0), 1u);
  EXPECT_EQ(m.field_bits(Message::kMaxFields - 1), 7u);
}

}  // namespace
}  // namespace qc::congest
