// Rateless GF(256) erasure codec tests: field arithmetic (every product
// and every row-kernel coefficient), the Cauchy k-of-n recovery
// guarantee (every k-subset for k <= 8, seeded loss and arrival order up
// to k = 128, one k = 200 round trip), and clean failure below k
// fragments.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fec/gf256.hpp"
#include "fec/rateless.hpp"
#include "sim/rng.hpp"

namespace croupier::fec {
namespace {

TEST(Gf256, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(x, 1), x);
    EXPECT_EQ(gf_mul(1, x), x);
    EXPECT_EQ(gf_mul(x, 0), 0);
    EXPECT_EQ(gf_mul(0, x), 0);
  }
}

TEST(Gf256, MulCommutes) {
  for (int a = 0; a < 256; a += 7) {
    for (int b = 0; b < 256; b += 5) {
      EXPECT_EQ(gf_mul(static_cast<std::uint8_t>(a),
                       static_cast<std::uint8_t>(b)),
                gf_mul(static_cast<std::uint8_t>(b),
                       static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(Gf256, EveryNonZeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(x, gf_inv(x)), 1) << "a=" << a;
  }
}

TEST(Gf256, AesFieldSpotChecks) {
  // 0x53 * 0xCA = 0x01 is the classic AES-field example pair.
  EXPECT_EQ(gf_mul(0x53, 0xCA), 0x01);
  EXPECT_EQ(gf_inv(0x53), 0xCA);
  // Generator: 0x03 * 0x03 = 0x05 (x+1 squared = x^2+1, no reduction).
  EXPECT_EQ(gf_mul(0x03, 0x03), 0x05);
}

/// a * b by shift and XOR, reduced by 0x11b whenever the degree-8 bit
/// appears: the field's definition, independent of every table.
std::uint8_t shift_and_reduce_mul(std::uint8_t a, std::uint8_t b) {
  std::uint32_t product = 0;
  std::uint32_t x = a;
  for (std::uint32_t bits = b; bits != 0; bits >>= 1) {
    if ((bits & 1u) != 0) product ^= x;
    x <<= 1;
    if ((x & 0x100u) != 0) x ^= 0x11bu;
  }
  return static_cast<std::uint8_t>(product);
}

TEST(Gf256, ProductTableMatchesShiftAndReduce) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      ASSERT_EQ(gf_mul(x, y), shift_and_reduce_mul(x, y))
          << "a=" << a << " b=" << b;
    }
  }
  // The row kernels against a bytewise reference, for every coefficient,
  // over buffers that each hold all 256 byte values (dst in another
  // order). Bytes past `len` must stay as they were.
  std::vector<std::byte> src(256);
  std::vector<std::byte> start(256);
  for (std::size_t i = 0; i < 256; ++i) {
    src[i] = static_cast<std::byte>(i);
    start[i] = static_cast<std::byte>(i * 7 + 3);
  }
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                std::size_t{255}, std::size_t{256}}) {
    for (int c = 0; c < 256; ++c) {
      const auto coeff = static_cast<std::uint8_t>(c);
      auto added = start;
      gf_mul_add(added.data(), src.data(), len, coeff);
      auto scaled = start;
      if (coeff != 0) gf_scale(scaled.data(), len, coeff);  // 0 asserts
      for (std::size_t i = 0; i < 256; ++i) {
        const auto d = std::to_integer<std::uint8_t>(start[i]);
        const auto s = std::to_integer<std::uint8_t>(src[i]);
        const bool in_row = i < len;
        ASSERT_EQ(std::to_integer<std::uint8_t>(added[i]),
                  in_row ? gf_add(d, shift_and_reduce_mul(coeff, s)) : d)
            << "gf_mul_add len=" << len << " coeff=" << c << " i=" << i;
        ASSERT_EQ(std::to_integer<std::uint8_t>(scaled[i]),
                  in_row && coeff != 0 ? shift_and_reduce_mul(coeff, d) : d)
            << "gf_scale len=" << len << " coeff=" << c << " i=" << i;
      }
    }
  }
}

TEST(Gf256, MulAddIsRowOperation) {
  std::vector<std::byte> dst = {std::byte{1}, std::byte{2}, std::byte{3}};
  const std::vector<std::byte> src = {std::byte{10}, std::byte{20},
                                      std::byte{30}};
  gf_mul_add(dst.data(), src.data(), dst.size(), 0x02);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    const auto expect = gf_add(
        static_cast<std::uint8_t>(i + 1),
        gf_mul(0x02, static_cast<std::uint8_t>((i + 1) * 10)));
    EXPECT_EQ(std::to_integer<std::uint8_t>(dst[i]), expect);
  }
}

std::vector<std::byte> make_message(std::size_t n) {
  std::vector<std::byte> msg(n);
  for (std::size_t i = 0; i < n; ++i) {
    msg[i] = static_cast<std::byte>(i * 37 + 11);
  }
  return msg;
}

/// The k chunks of `msg` (tail zero-padded to chunk_len).
std::vector<std::vector<std::byte>> chunks_of(
    const std::vector<std::byte>& msg, std::size_t k,
    std::size_t chunk_len) {
  std::vector<std::vector<std::byte>> out;
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<std::byte> chunk(chunk_len, std::byte{0});
    for (std::size_t j = 0; j < chunk_len; ++j) {
      const std::size_t pos = i * chunk_len + j;
      if (pos < msg.size()) chunk[j] = msg[pos];
    }
    out.push_back(std::move(chunk));
  }
  return out;
}

/// Repair row `repair_index` of `msg`, written by the codec into a
/// fresh row.
std::vector<std::byte> repair_row(const std::vector<std::byte>& msg,
                                  std::size_t k, std::size_t chunk_len,
                                  std::size_t repair_index) {
  std::vector<std::byte> row(chunk_len);
  encode_repair(msg, k, chunk_len, repair_index, row);
  return row;
}

TEST(Rateless, RepairCoeffIsNonZeroAndDeterministic) {
  for (std::size_t k = 1; k <= 8; ++k) {
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_NE(repair_coeff(k, r, i), 0);
        EXPECT_EQ(repair_coeff(k, r, i), repair_coeff(k, r, i));
      }
    }
  }
}

TEST(Rateless, DecodesFromExactlyKSourceFragments) {
  const std::size_t k = 4, chunk_len = 5;
  const auto msg = make_message(18);  // tail chunk 3 bytes + padding
  const auto chunks = chunks_of(msg, k, chunk_len);

  Decoder dec(k, chunk_len);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_FALSE(dec.ready());
    EXPECT_TRUE(dec.add(i, chunks[i]));
  }
  ASSERT_TRUE(dec.ready());
  const auto out = dec.decode();
  ASSERT_EQ(out.size(), k * chunk_len);
  for (std::size_t i = 0; i < msg.size(); ++i) EXPECT_EQ(out[i], msg[i]);
}

/// The FEC geometry sweep, after the block-size x N sweep of wh256's unit
/// test: k = 1..8 source chunks of kSweepChunk bytes, 0..4 repair rows,
/// and a message that fills the tail chunk, misses its last byte, or
/// leaves it one byte long. `check` gets the message, k, and the k + r
/// fragment payloads as the wire carries them (the tail chunk short).
constexpr std::size_t kSweepChunk = 5;

template <typename Check>
void for_each_geometry(Check check) {
  constexpr std::size_t c = kSweepChunk;
  for (std::size_t k = 1; k <= 8; ++k) {
    for (std::size_t r = 0; r <= 4; ++r) {
      for (const std::size_t len : {k * c, k * c - 1, k * c - (c - 1)}) {
        const auto msg = make_message(len);
        std::vector<std::vector<std::byte>> rows;
        for (std::size_t i = 0; i < k; ++i) {
          rows.emplace_back(msg.begin() + static_cast<std::ptrdiff_t>(i * c),
                            msg.begin() + static_cast<std::ptrdiff_t>(
                                              std::min((i + 1) * c, len)));
        }
        for (std::size_t j = 0; j < r; ++j) {
          rows.push_back(repair_row(msg, k, c, j));
        }
        check(msg, k, rows);
      }
    }
  }
}

/// Adds the rows whose bit is set in `mask` to a fresh decoder.
Decoder decoder_for(std::size_t k,
                    const std::vector<std::vector<std::byte>>& rows,
                    std::uint32_t mask) {
  Decoder dec(k, kSweepChunk);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (((mask >> i) & 1u) != 0) {
      EXPECT_TRUE(dec.add(i, rows[i]));
    }
  }
  return dec;
}

/// The decoded buffer is the message followed by zero padding, k chunks
/// of chunk_len bytes in all.
bool decodes_to(std::span<const std::byte> out,
                const std::vector<std::byte>& msg, std::size_t k,
                std::size_t chunk_len) {
  return out.size() == k * chunk_len &&
         std::equal(msg.begin(), msg.end(), out.begin()) &&
         std::all_of(out.begin() + static_cast<std::ptrdiff_t>(msg.size()),
                     out.end(), [](std::byte b) { return b == std::byte{0}; });
}

TEST(Rateless, DecodesFromAnyKOfNMixes) {
  // Every k-subset of the k + r fragment indices decodes.
  for_each_geometry([](const auto& msg, std::size_t k, const auto& rows) {
    for (std::uint32_t mask = 0; mask < (1u << rows.size()); ++mask) {
      if (std::popcount(mask) != static_cast<int>(k)) continue;
      Decoder dec = decoder_for(k, rows, mask);
      ASSERT_TRUE(dec.ready());
      ASSERT_TRUE(decodes_to(dec.decode(), msg, k, kSweepChunk))
          << "k=" << k << " n=" << rows.size() << " len=" << msg.size()
          << " mask=" << mask;
    }
  });
}

TEST(Rateless, FailsCleanlyBelowK) {
  // No (k-1)-subset decodes, and a failed attempt leaves its rows
  // intact: any further fragment completes the message.
  for_each_geometry([](const auto& msg, std::size_t k, const auto& rows) {
    for (std::uint32_t mask = 0; mask < (1u << rows.size()); ++mask) {
      if (std::popcount(mask) != static_cast<int>(k) - 1) continue;
      Decoder dec = decoder_for(k, rows, mask);
      ASSERT_FALSE(dec.ready());
      EXPECT_EQ(dec.rows(), k - 1);
      ASSERT_TRUE(dec.decode().empty());
      const auto next = static_cast<std::size_t>(std::countr_one(mask));
      EXPECT_TRUE(dec.add(next, rows[next]));
      ASSERT_TRUE(decodes_to(dec.decode(), msg, k, kSweepChunk))
          << "k=" << k << " n=" << rows.size() << " len=" << msg.size()
          << " mask=" << mask << " next=" << next;
    }
  });
}

TEST(Rateless, RejectsDuplicatesAndOverfill) {
  const std::size_t k = 2, chunk_len = 3;
  const auto msg = make_message(6);
  const auto chunks = chunks_of(msg, k, chunk_len);
  Decoder dec(k, chunk_len);
  EXPECT_TRUE(dec.add(0, chunks[0]));
  EXPECT_FALSE(dec.add(0, chunks[0]));  // duplicate index
  EXPECT_TRUE(dec.add(2, repair_row(msg, k, chunk_len, 0)));
  EXPECT_TRUE(dec.ready());
  EXPECT_FALSE(dec.add(1, chunks[1]));  // already ready: rejected
  EXPECT_EQ(dec.rows(), 2u);
  const auto out = dec.decode();
  ASSERT_EQ(out.size(), k * chunk_len);
  for (std::size_t i = 0; i < msg.size(); ++i) EXPECT_EQ(out[i], msg[i]);
}

TEST(Rateless, ShortPayloadIsZeroPadded) {
  // The tail source chunk rides the wire at its true (short) length;
  // the decoder must treat it as zero-padded to chunk_len.
  const std::size_t k = 2, chunk_len = 4;
  const auto msg = make_message(6);  // tail chunk only 2 bytes
  Decoder dec(k, chunk_len);
  EXPECT_TRUE(dec.add(0, std::span<const std::byte>(msg).subspan(0, 4)));
  EXPECT_TRUE(dec.add(1, std::span<const std::byte>(msg).subspan(4, 2)));
  const auto out = dec.decode();
  ASSERT_EQ(out.size(), k * chunk_len);
  for (std::size_t i = 0; i < msg.size(); ++i) EXPECT_EQ(out[i], msg[i]);
  EXPECT_EQ(out[6], std::byte{0});
  EXPECT_EQ(out[7], std::byte{0});
}

TEST(Rateless, EncodeRepairWritesTheWholeRow) {
  // The caller's row may hold anything: the codec overwrites all of it,
  // padding columns included.
  const std::size_t k = 3, chunk_len = 5;
  const auto msg = make_message(11);
  std::vector<std::byte> dirty(chunk_len, std::byte{0xA5});
  encode_repair(msg, k, chunk_len, 1, dirty);
  EXPECT_EQ(dirty, repair_row(msg, k, chunk_len, 1));
  // An explicitly zero-padded message gives the same row.
  auto padded = msg;
  padded.resize(k * chunk_len, std::byte{0});
  EXPECT_EQ(repair_row(padded, k, chunk_len, 1),
            repair_row(msg, k, chunk_len, 1));
}

TEST(Rateless, RepeatedDecodeReturnsTheSameView) {
  const std::size_t k = 3, chunk_len = 4;
  const auto msg = make_message(12);
  Decoder dec(k, chunk_len);
  EXPECT_TRUE(dec.add(4, repair_row(msg, k, chunk_len, 1)));
  EXPECT_TRUE(dec.add(3, repair_row(msg, k, chunk_len, 0)));
  EXPECT_TRUE(dec.add(1, std::span<const std::byte>(msg).subspan(4, 4)));
  const auto first = dec.decode();
  const auto second = dec.decode();
  ASSERT_EQ(first.size(), k * chunk_len);
  EXPECT_EQ(first.data(), second.data());
  EXPECT_EQ(second.size(), first.size());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), msg.begin()));
}

TEST(Rateless, SeededSweepOfLargerGeometries) {
  // wh256's unit-test sweep, for the geometries the k <= 8 sweep above
  // never reaches: each message length, split into every k up to
  // min(length, 128) chunks of ceil(length / k) bytes (so a tail chunk
  // may be short or empty), plus two repair rows. A seeded loss of up to
  // two fragments and a seeded arrival order pick which k rows the
  // decoder keeps.
  constexpr std::size_t kRepairs = 2;
  sim::RngStream rng(1);
  for (const std::size_t len : {1, 2, 3, 4, 5, 28, 29, 30, 31, 32, 128,
                                1037}) {
    std::vector<std::byte> msg(len);
    for (auto& b : msg) b = static_cast<std::byte>(rng.next_u64());
    for (std::size_t k = 1; k <= std::min<std::size_t>(len, 128); ++k) {
      const std::size_t chunk_len = (len + k - 1) / k;
      std::vector<std::vector<std::byte>> rows;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t begin = std::min(i * chunk_len, len);
        const std::size_t end = std::min(begin + chunk_len, len);
        rows.emplace_back(msg.begin() + static_cast<std::ptrdiff_t>(begin),
                          msg.begin() + static_cast<std::ptrdiff_t>(end));
      }
      for (std::size_t j = 0; j < kRepairs; ++j) {
        rows.push_back(repair_row(msg, k, chunk_len, j));
      }
      std::vector<std::size_t> arrivals(rows.size());
      for (std::size_t i = 0; i < arrivals.size(); ++i) arrivals[i] = i;
      rng.shuffle(std::span<std::size_t>(arrivals));
      arrivals.resize(arrivals.size() - rng.index(kRepairs + 1));  // lost

      Decoder dec(k, chunk_len);
      for (const std::size_t index : arrivals) {
        const bool wanted = !dec.ready();
        ASSERT_EQ(dec.add(index, rows[index]), wanted)
            << "len=" << len << " k=" << k << " index=" << index;
      }
      ASSERT_TRUE(dec.ready()) << "len=" << len << " k=" << k;
      ASSERT_TRUE(decodes_to(dec.decode(), msg, k, chunk_len))
          << "len=" << len << " k=" << k;
    }
  }
}

TEST(Rateless, LargeKRoundTrip) {
  // Near the Cauchy bound: k = 200 sources + 56 repairs = 256 points.
  const std::size_t k = 200, chunk_len = 8;
  const auto msg = make_message(k * chunk_len - 3);
  const auto chunks = chunks_of(msg, k, chunk_len);
  Decoder dec(k, chunk_len);
  // Drop every 5th source chunk; replace with repairs.
  std::size_t repair = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (i % 5 == 0) {
      EXPECT_TRUE(dec.add(k + repair,
                          repair_row(msg, k, chunk_len, repair)));
      ++repair;
    } else {
      EXPECT_TRUE(dec.add(i, chunks[i]));
    }
  }
  ASSERT_LE(k + repair, kMaxCodedFragments);
  ASSERT_TRUE(dec.ready());
  const auto out = dec.decode();
  ASSERT_EQ(out.size(), k * chunk_len);
  for (std::size_t i = 0; i < msg.size(); ++i) EXPECT_EQ(out[i], msg[i]);
}

}  // namespace
}  // namespace croupier::fec
