// Wire codec tests: round-trips, byte layout, bounds checking.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/estimator.hpp"
#include "sim/rng.hpp"
#include "wire/wire.hpp"

namespace croupier::wire {
namespace {

TEST(Writer, SizesAccumulate) {
  Writer w;
  w.u8(1);
  EXPECT_EQ(w.size(), 1u);
  w.u16(2);
  EXPECT_EQ(w.size(), 3u);
  w.u32(3);
  EXPECT_EQ(w.size(), 7u);
  w.u64(4);
  EXPECT_EQ(w.size(), 15u);
}

TEST(Writer, BigEndianLayout) {
  Writer w;
  w.u32(0x01020304u);
  const auto data = w.data();
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(std::to_integer<int>(data[0]), 0x01);
  EXPECT_EQ(std::to_integer<int>(data[1]), 0x02);
  EXPECT_EQ(std::to_integer<int>(data[2]), 0x03);
  EXPECT_EQ(std::to_integer<int>(data[3]), 0x04);
}

TEST(RoundTrip, AllWidths) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.exhausted());
}

TEST(RoundTrip, ExtremeValues) {
  Writer w;
  w.u8(0);
  w.u8(0xFF);
  w.u16(0);
  w.u16(0xFFFF);
  w.u32(0);
  w.u32(std::numeric_limits<std::uint32_t>::max());
  w.u64(0);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u8(), 0xFFu);
  EXPECT_EQ(r.u16(), 0u);
  EXPECT_EQ(r.u16(), 0xFFFFu);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u32(), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(r.exhausted());
}

TEST(Reader, OverrunLatchesError) {
  Writer w;
  w.u16(7);
  Reader r(w.data());
  EXPECT_EQ(r.u32(), 0u);  // needs 4 bytes, only 2 available
  EXPECT_FALSE(r.ok());
}

TEST(Reader, ErrorStaysLatched) {
  Writer w;
  w.u8(7);
  Reader r(w.data());
  (void)r.u32();
  EXPECT_FALSE(r.ok());
  // Even reads that would fit keep failing once the error latched.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Reader, EmptyBufferFailsImmediately) {
  Reader r({});
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Reader, RemainingCountsDown) {
  Writer w;
  w.u64(1);
  Reader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u16();
  EXPECT_EQ(r.remaining(), 6u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(Reader, ExhaustedRequiresFullConsumption) {
  Writer w;
  w.u16(5);
  Reader r(w.data());
  (void)r.u8();
  EXPECT_FALSE(r.exhausted());
  (void)r.u8();
  EXPECT_TRUE(r.exhausted());
}

TEST(Writer, BytesAppends) {
  Writer inner;
  inner.u32(42);
  Writer outer;
  outer.u8(1);
  outer.bytes(inner.data());
  EXPECT_EQ(outer.size(), 5u);
  Reader r(outer.data());
  EXPECT_EQ(r.u8(), 1u);
  EXPECT_EQ(r.u32(), 42u);
}

TEST(Writer, TakeMovesBuffer) {
  Writer w;
  w.u16(0x0102);
  const auto buf = std::move(w).take();
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(std::to_integer<int>(buf[0]), 1);
  EXPECT_EQ(std::to_integer<int>(buf[1]), 2);
}

// Property sweep: random mixed-width sequences round-trip exactly.
class WireFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzRoundTrip, RandomSequences) {
  sim::RngStream rng(GetParam());
  for (int iteration = 0; iteration < 50; ++iteration) {
    Writer w;
    std::vector<std::pair<int, std::uint64_t>> expected;
    const int ops = static_cast<int>(rng.uniform(40)) + 1;
    for (int i = 0; i < ops; ++i) {
      const int width = static_cast<int>(rng.uniform(4));
      const std::uint64_t value = rng.next_u64();
      switch (width) {
        case 0:
          w.u8(static_cast<std::uint8_t>(value));
          expected.emplace_back(0, value & 0xff);
          break;
        case 1:
          w.u16(static_cast<std::uint16_t>(value));
          expected.emplace_back(1, value & 0xffff);
          break;
        case 2:
          w.u32(static_cast<std::uint32_t>(value));
          expected.emplace_back(2, value & 0xffffffffull);
          break;
        default:
          w.u64(value);
          expected.emplace_back(3, value);
          break;
      }
    }
    Reader r(w.data());
    for (const auto& [width, value] : expected) {
      switch (width) {
        case 0:
          EXPECT_EQ(r.u8(), value);
          break;
        case 1:
          EXPECT_EQ(r.u16(), value);
          break;
        case 2:
          EXPECT_EQ(r.u32(), value);
          break;
        default:
          EXPECT_EQ(r.u64(), value);
          break;
      }
    }
    EXPECT_TRUE(r.exhausted());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

// An estimate list's count is one byte, so 255 entries (the registry's
// share_limit bound) is the longest list. Every entry holds its wire
// image, so the whole list survives the trip, with origins across the
// 0xffff escape.
TEST(RoundTrip, LongestEstimateList) {
  sim::RngStream rng(17);
  std::vector<core::EstimateEntry> list;
  for (std::uint32_t i = 0; i < core::EstimatorConfig::kMaxShareLimit; ++i) {
    list.push_back(core::EstimateEntry{
        0xff80u + i, static_cast<std::uint8_t>(rng.uniform(256)),
        static_cast<std::uint8_t>(rng.uniform(256)),
        static_cast<std::uint8_t>(rng.uniform(256))});
  }
  Writer w;
  layout(w, list);
  Reader r(w.data());
  std::vector<core::EstimateEntry> back;
  layout(r, back);
  EXPECT_EQ(back, list);
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace croupier::wire
