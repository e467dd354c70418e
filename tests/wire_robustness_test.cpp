// Robustness of every message decoder against truncated or garbage
// buffers: decoding must never crash or read out of bounds, and the
// reader must flag the error. (A deployed UDP service decodes hostile
// bytes; the simulator decodes only in checked builds, where the network
// round-trips every message it sends, but the decoders are part of the
// public wire contract and fuzz targets.) The bytes of every message
// type are pinned, so a layout change cannot pass unnoticed.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "every_message.hpp"
#include "sim/rng.hpp"

namespace croupier {
namespace {

using Bytes = std::vector<std::byte>;

/// Decodes one message of type M from `r` and re-encodes it.
template <typename M>
Bytes redecode(wire::Reader& r) {
  const M m = M::decode(r);
  wire::Writer w;
  m.encode(w);
  return std::move(w).take();
}

struct Representative {
  std::string name;
  Bytes bytes;
  Bytes (*redecode)(wire::Reader&);
};

// One instance of every message type in src/, encoded, with its decoder,
// lists `n` entries long. At two entries the second Nylon descriptor's
// age saturates and the second estimate origin takes the 4 B escape.
std::vector<Representative> representative_messages(std::size_t n = 2) {
  std::vector<Representative> out;
  croupier::testing::for_each_message(n, [&out]<typename M>(const M& m) {
    wire::Writer w;
    m.encode(w);
    out.push_back({m.name(), std::move(w).take(), &redecode<M>});
  });
  return out;
}

std::string to_hex(std::span<const std::byte> bytes) {
  std::string hex;
  for (const std::byte b : bytes) {
    char digits[3];
    std::snprintf(digits, sizeof digits, "%02x", std::to_integer<unsigned>(b));
    hex += digits;
  }
  return hex;
}

// Every representative's encoding, byte for byte. Any change to a tag, a
// field, its width or its order fails here.
TEST(WireRobustness, BytesArePinned) {
  const std::map<std::string, std::string> pinned = {
      {"croupier.shuffle_req",
       "100000000127100000020000000127100000000000042710016102000000012710"
       "0000000000042710016102fff000ff07ffff00010ff003fe07"},
      {"croupier.shuffle_res",
       "110200000001271000000000000427100161020000000127100000000000042710"
       "016102fff000ff07ffff00010ff003fe07"},
      {"cyclon.shuffle_req",
       "2000000001271000000200000001271000000000000427100161"},
      {"cyclon.shuffle_res", "210200000001271000000000000427100161"},
      {"arrg.shuffle_req",
       "6000000001271000000200000001271000000000000427100161"},
      {"arrg.shuffle_res", "610200000001271000000000000427100161"},
      {"gozar.shuffle_req",
       "30000000082710010303000000642710000000652710000000662710beef020000"
       "00052710010000000000062710010101000000642710"},
      {"gozar.shuffle_res",
       "310000004d271002000000052710010000000000062710010101000000642710"},
      {"gozar.relayed_req",
       "320000000c27103000000008271001030300000064271000000065271000000066"
       "2710beef02000000052710010000000000062710010101000000642710"},
      {"gozar.relayed_res",
       "330000000d2710310000004d271002000000052710010000000000062710010101"
       "000000642710"},
      {"gozar.ping", "34"},
      {"gozar.pong", "35"},
      {"nylon.shuffle_req",
       "4000000009271001000200000009271001000000000a271001ff"},
      {"nylon.shuffle_res", "410200000009271001000000000a271001ff"},
      {"nylon.punch_req", "4200000003271001fffffffe271002"},
      {"nylon.connect", "43000000082710"},
      {"nylon.punch_open", "44"},
      {"nylon.probe", "45"},
      {"nylon.keepalive", "46"},
      {"natid.matching_ip_test", "5002000000282710000000292710"},
      {"natid.forward_test", "5100000006271052000006"},
      {"natid.forward_resp", "520a000001"},
  };
  const auto msgs = representative_messages();
  EXPECT_EQ(msgs.size(), pinned.size());
  for (const auto& m : msgs) {
    const auto it = pinned.find(m.name);
    ASSERT_NE(it, pinned.end()) << m.name << " has no pinned bytes";
    EXPECT_EQ(to_hex(m.bytes), it->second) << m.name;
  }
}

// A full buffer decodes with nothing left over, and what it decodes to
// encodes to the same bytes, from empty lists to 255 estimates.
TEST(WireRobustness, FullBuffersDecodeCleanly) {
  for (const std::size_t n : {0u, 1u, 2u, 10u, 20u}) {
    for (const auto& m : representative_messages(n)) {
      wire::Reader r(m.bytes);
      const Bytes again = m.redecode(r);
      EXPECT_TRUE(r.exhausted()) << m.name << ", lists of " << n;
      EXPECT_EQ(again, m.bytes) << m.name << ", lists of " << n;
    }
  }
}

TEST(WireRobustness, EveryTruncationIsSafe) {
  for (const auto& m : representative_messages()) {
    for (std::size_t cut = 0; cut < m.bytes.size(); ++cut) {
      // Must not crash; every cut bites into a field the layout reads,
      // so the reader must be latched.
      wire::Reader r(std::span<const std::byte>(m.bytes.data(), cut));
      (void)m.redecode(r);
      EXPECT_FALSE(r.ok()) << m.name << " cut at " << cut;
    }
  }
}

TEST(WireRobustness, RandomGarbageIsSafe) {
  const auto msgs = representative_messages();
  sim::RngStream rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes garbage(rng.uniform(64));
    for (auto& b : garbage) {
      b = static_cast<std::byte>(rng.uniform(256));
    }
    for (const auto& m : msgs) {
      wire::Reader r(garbage);
      (void)m.redecode(r);
    }
  }
}

TEST(WireRobustness, LengthPrefixLyingLargeIsSafe) {
  // A descriptor list claiming 255 entries with only one present: the
  // decoder must stop at the buffer end with the error latched.
  wire::Writer w;
  w.u8(0xff);  // claimed count
  layout(w, pss::NodeDescriptor{1, net::NatType::Public, 0});
  wire::Reader r(w.data());
  std::vector<pss::NodeDescriptor> decoded;
  layout(r, decoded);
  EXPECT_LE(decoded.size(), 2u);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace croupier
