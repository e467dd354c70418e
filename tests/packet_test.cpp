// Packet layer tests: fragment framing, Reader truncation latching,
// fragmentation geometry, reassembly under reorder/duplication/expiry,
// token-bucket conservation, and the Network-level fragmented path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fec/rateless.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/token_bucket.hpp"
#include "sim/simulator.hpp"

namespace croupier::net {
namespace {

using sim::msec;
using sim::sec;

std::vector<std::byte> make_payload(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(i * 13 + 5);
  }
  return out;
}

TEST(FragmentHeader, RoundTripsThroughWire) {
  FragmentHeader h;
  h.msg_id = 0x0123456789ABCDEFull;
  h.index = 7;
  h.count = 12;
  h.source = 10;
  h.payload_len = 44;
  h.total_len = 437;

  wire::Writer w;
  layout(w, h);
  EXPECT_EQ(w.size(), kFragmentHeaderBytes);

  wire::Reader r(w.data());
  FragmentHeader back;
  layout(r, back);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, h);
}

TEST(FragmentHeader, TruncatedDecodeLatchesReader) {
  FragmentHeader h;
  h.msg_id = 42;
  h.payload_len = 16;
  wire::Writer w;
  layout(w, h);
  // Cut mid-header: decode yields zeros and a latched reader.
  wire::Reader r(w.data().subspan(0, kFragmentHeaderBytes - 3));
  FragmentHeader back;
  layout(r, back);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(back.total_len, 0u);
}

TEST(Reader, CutFragmentPayloadLatches) {
  // A frame whose header promises more payload than the datagram holds:
  // the bytes() read must latch, not return a short span.
  FragmentHeader h;
  h.msg_id = 1;
  h.index = 0;
  h.count = 2;
  h.source = 2;
  h.payload_len = 32;
  h.total_len = 64;
  wire::Writer w;
  layout(w, h);
  w.bytes(make_payload(20));  // 12 bytes short of payload_len

  wire::Reader r(w.data());
  FragmentHeader back;
  layout(r, back);
  ASSERT_TRUE(r.ok());
  const auto payload = r.bytes(back.payload_len);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(payload.empty());
  // Latched: every later read keeps failing, returns zeros.
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.exhausted());
}

TEST(Fragmenter, GeometryAtSmallMtu) {
  PacketConfig cfg;
  cfg.mtu = 64;  // 44-byte chunks
  const Fragmenter frag(cfg);
  EXPECT_FALSE(frag.needs_fragmentation(64));
  EXPECT_TRUE(frag.needs_fragmentation(65));
  EXPECT_EQ(frag.source_count(100), 3u);  // ceil(100 / 44)
  EXPECT_EQ(frag.repair_count(3), 0u);    // fec off
  EXPECT_EQ(frag.buffer_size(100), 3u * 34u);

  const auto msg = make_payload(100);
  auto frags = frag.split(msg);
  frags.set_msg_id(9);
  ASSERT_EQ(frags.count(), 3u);
  ASSERT_EQ(frags.source(), 3u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < frags.count(); ++i) {
    const FragmentHeader h = frags.header(i);
    EXPECT_EQ(h.msg_id, 9u);
    EXPECT_EQ(h.index, i);
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.source, 3u);
    EXPECT_EQ(h.total_len, 100u);
    EXPECT_EQ(h.payload_len, frags.payload(i).size());
    EXPECT_LE(frags.wire_size(i), cfg.mtu);
    total += frags.payload(i).size();
  }
  EXPECT_EQ(total, 100u);  // source fragments carry exactly the message
  EXPECT_TRUE(std::ranges::equal(frags.message(), msg));
}

TEST(Fragmenter, FecAppendsRepairFragments) {
  PacketConfig cfg;
  cfg.mtu = 64;
  cfg.fec_repair = 2;
  cfg.fec_rate = 0.5;  // + ceil(0.5 * k)
  const Fragmenter frag(cfg);
  EXPECT_EQ(frag.repair_count(3), 2u + 2u);
  EXPECT_EQ(frag.buffer_size(100), 7u * 34u);

  const auto msg = make_payload(100);  // k = 3
  const auto frags = frag.split(msg);
  ASSERT_EQ(frags.count(), 7u);
  for (std::size_t i = 0; i < frags.count(); ++i) {
    const FragmentHeader h = frags.header(i);
    EXPECT_EQ(h.count, 7u);
    EXPECT_EQ(h.source, 3u);
    EXPECT_LE(frags.wire_size(i), cfg.mtu);
  }
  // Repair payloads are full chunks; the short tail chunk is not.
  EXPECT_EQ(frags.payload(3).size(), frags.payload(0).size());
  EXPECT_EQ(frags.payload(2).size(), 32u);
  // Each repair row is the codec's row over the message.
  std::vector<std::byte> row(34);
  fec::encode_repair(msg, 3, 34, 1, row);
  EXPECT_TRUE(std::ranges::equal(frags.payload(4), row));
}

TEST(FragmentAssembly, ReassemblesUnderReorderAndDuplication) {
  PacketConfig cfg;
  cfg.mtu = 64;
  const auto msg = make_payload(150);  // k = 4
  const auto frags = Fragmenter(cfg).split(msg);
  ASSERT_EQ(frags.count(), 4u);

  FragmentAssembly assembly(frags.header(2));
  EXPECT_FALSE(assembly.add(frags.header(2), frags.payload(2)));
  EXPECT_FALSE(assembly.add(frags.header(2), frags.payload(2)));  // dup
  EXPECT_FALSE(assembly.add(frags.header(0), frags.payload(0)));
  EXPECT_FALSE(assembly.add(frags.header(3), frags.payload(3)));
  EXPECT_EQ(assembly.fragments_held(), 3u);
  EXPECT_TRUE(assembly.bytes().empty());  // incomplete
  EXPECT_TRUE(assembly.add(frags.header(1), frags.payload(1)));
  ASSERT_TRUE(assembly.complete());
  EXPECT_TRUE(std::ranges::equal(assembly.bytes(), msg));
}

TEST(FragmentAssembly, FecDecodeAtExactlyKofN) {
  PacketConfig cfg;
  cfg.mtu = 64;
  cfg.fec_repair = 2;
  const auto msg = make_payload(150);  // k = 4, n = 6
  const auto frags = Fragmenter(cfg).split(msg);
  ASSERT_EQ(frags.count(), 6u);

  // Drop sources 1 and 3; the two repairs substitute.
  FragmentAssembly assembly(frags.header(4));
  assembly.add(frags.header(4), frags.payload(4));
  assembly.add(frags.header(0), frags.payload(0));
  assembly.add(frags.header(5), frags.payload(5));
  EXPECT_FALSE(assembly.complete());  // k-1 held: must not complete
  EXPECT_TRUE(assembly.bytes().empty());
  EXPECT_TRUE(assembly.add(frags.header(2), frags.payload(2)));
  EXPECT_TRUE(std::ranges::equal(assembly.bytes(), msg));
  // A duplicate after completion changes nothing.
  EXPECT_FALSE(assembly.add(frags.header(1), frags.payload(1)));
  EXPECT_EQ(assembly.fragments_held(), 4u);
}

TEST(FragmentAssembly, IgnoresGeometryMismatches) {
  PacketConfig cfg;
  cfg.mtu = 64;
  const auto msg = make_payload(100);
  const auto frags = Fragmenter(cfg).split(msg);
  FragmentAssembly assembly(frags.header(0));
  EXPECT_FALSE(assembly.add(frags.header(0), frags.payload(0)));

  FragmentHeader bad = frags.header(1);
  bad.total_len = 999;  // mismatched geometry
  EXPECT_FALSE(assembly.add(bad, frags.payload(1)));
  bad = frags.header(1);
  bad.index = bad.count;  // out-of-range index
  EXPECT_FALSE(assembly.add(bad, frags.payload(1)));
  // Payload length disagreeing with the header is ignored too.
  EXPECT_FALSE(assembly.add(frags.header(1), frags.payload(1).first(1)));
  EXPECT_EQ(assembly.fragments_held(), 1u);
}

TEST(TokenBucket, BurstPassesFreeThenDelaysExactly) {
  // 1000 B/s, 500 B burst: the first 500 bytes are free; each byte
  // beyond owes exactly 1 ms.
  TokenBucket bucket(1000, 500);
  EXPECT_EQ(bucket.charge(0, 500), 0u);
  EXPECT_EQ(bucket.balance_bytes(), 0);
  // 250 B with an empty bucket: last token arrives after 250 ms.
  EXPECT_EQ(bucket.charge(0, 250), msec(250));
  EXPECT_EQ(bucket.balance_bytes(), -250);
}

TEST(TokenBucket, ConservationAcrossChargePatterns) {
  // However N bytes are sliced into datagrams at t=0, the LAST datagram's
  // delay is the same: (N - burst) / rate.
  const std::uint64_t rate = 2000, burst = 100;
  const std::size_t total = 1100;
  const sim::Duration expect = msec(500);  // (1100 - 100) B at 2000 B/s
  for (const std::size_t slice : {std::size_t{1100}, std::size_t{100},
                                  std::size_t{20}}) {
    TokenBucket bucket(rate, burst);
    sim::Duration last = 0;
    for (std::size_t sent = 0; sent < total; sent += slice) {
      last = bucket.charge(0, slice);
    }
    EXPECT_EQ(last, expect) << "slice=" << slice;
    EXPECT_EQ(bucket.balance_bytes(), -static_cast<std::int64_t>(total -
                                                                 burst));
  }
}

TEST(TokenBucket, RefillsAtRateAndCapsAtBurst) {
  TokenBucket bucket(1000, 500);
  EXPECT_EQ(bucket.charge(0, 500), 0u);
  // 100 ms later 100 tokens accrued.
  EXPECT_EQ(bucket.charge(msec(100), 100), 0u);
  EXPECT_EQ(bucket.balance_bytes(), 0);
  // A long idle refills to burst, never beyond.
  EXPECT_EQ(bucket.charge(sec(100), 500), 0u);
  EXPECT_EQ(bucket.balance_bytes(), 0);
}

// ---------------------------------------------------------------------
// Network-level packet path.

struct BigMsg final : Message {
  std::vector<std::byte> blob;
  explicit BigMsg(std::size_t n) : blob(make_payload(n)) {}
  [[nodiscard]] std::uint8_t type() const override { return 0x7E; }
  [[nodiscard]] const char* name() const override { return "big"; }
  void encode(wire::Writer& w) const override {
    w.u8(type());
    w.u32(static_cast<std::uint32_t>(blob.size()));
    w.bytes(blob);
  }
};

struct Inbox final : MessageHandler {
  std::vector<NodeId> received_from;
  void on_message(NodeId from, const Message&) override {
    received_from.push_back(from);
  }
};

struct Fixture {
  sim::Simulator sim;
  std::unique_ptr<Network> net;
  Inbox inbox_a, inbox_b;

  explicit Fixture(const PacketConfig& cfg, double loss = 0.0) {
    net = std::make_unique<Network>(
        sim, std::make_unique<ConstantLatency>(msec(10)), sim::RngStream(7),
        LossConfig::uniform(loss));
    net->set_packet_config(cfg);
    net->attach(1, NatConfig::open(), inbox_a);
    net->attach(2, NatConfig::open(), inbox_b);
  }
};

TEST(NetworkPacket, SmallMessagesRideClassicDatagrams) {
  PacketConfig cfg;
  cfg.mtu = 256;
  Fixture f(cfg);
  f.net->send(1, 2, std::make_shared<BigMsg>(100));  // 105 B wire < mtu
  f.sim.run();
  EXPECT_EQ(f.inbox_b.received_from.size(), 1u);
  EXPECT_EQ(f.net->drops().fragments_sent, 0u);
}

TEST(NetworkPacket, LargeMessageFragmentsAndReassembles) {
  PacketConfig cfg;
  cfg.mtu = 128;  // 108-byte chunks
  Fixture f(cfg);
  f.net->send(1, 2, std::make_shared<BigMsg>(300));  // 305 B -> k = 3
  f.sim.run_until(msec(11));
  ASSERT_EQ(f.inbox_b.received_from.size(), 1u);
  EXPECT_EQ(f.inbox_b.received_from[0], 1u);
  const auto& d = f.net->drops();
  EXPECT_EQ(d.fragments_sent, 3u);
  EXPECT_EQ(d.fragments_reassembled, 3u);
  EXPECT_EQ(d.delivered, 1u);
  // The completed entry lingers (suppressing late duplicates) until the
  // deterministic GC sweeps it.
  EXPECT_EQ(f.net->pending_reassemblies(2), 1u);
  f.sim.run();
  EXPECT_EQ(f.net->pending_reassemblies(2), 0u);
  EXPECT_EQ(d.fragments_expired, 0u);  // complete entries never expire
}

TEST(NetworkPacket, CompletedFecEntryLingersUntilItsGcEvent) {
  PacketConfig cfg;
  cfg.mtu = 128;
  cfg.fec_repair = 2;  // k = 3, so 5 fragments, all landing at 10 ms
  Fixture f(cfg);
  f.net->send(1, 2, std::make_shared<BigMsg>(300));
  f.sim.run_until(msec(11));
  ASSERT_EQ(f.inbox_b.received_from.size(), 1u);
  EXPECT_EQ(f.net->drops().fragments_reassembled, 3u);
  // The two fragments after the k-th are swallowed by the inert entry.
  EXPECT_EQ(f.net->pending_reassemblies(2), 1u);
  f.sim.run_until(msec(3009));
  EXPECT_EQ(f.net->pending_reassemblies(2), 1u);
  f.sim.run();
  // One GC event, armed at the first arrival, erases the entry.
  EXPECT_EQ(f.sim.now(), msec(3010));
  EXPECT_EQ(f.net->pending_reassemblies(2), 0u);
  EXPECT_EQ(f.net->drops().fragments_expired, 0u);
  EXPECT_EQ(f.sim.events_processed(), 6u);  // 5 deliveries + 1 GC
  EXPECT_EQ(f.inbox_b.received_from.size(), 1u);
}

TEST(NetworkPacket, FragmentAfterCollectionOpensAFreshEntry) {
  PacketConfig cfg;
  cfg.mtu = 128;  // k = 3 fragments of 150, 150 and 149 wire bytes
  cfg.bandwidth_bps = 1000;
  cfg.bandwidth_burst = 200;
  cfg.reassembly_timeout = msec(50);
  Fixture f(cfg);
  f.net->send(1, 2, std::make_shared<BigMsg>(300));
  f.sim.run();
  // The bucket spaces the fragments at 10, 110 and 259 ms, each after
  // its predecessor's entry was collected: three entries open and
  // expire, holding one fragment each, and the message never completes.
  EXPECT_TRUE(f.inbox_b.received_from.empty());
  EXPECT_EQ(f.net->drops().fragments_expired, 3u);
  EXPECT_EQ(f.net->drops().fragments_reassembled, 0u);
  EXPECT_EQ(f.net->pending_reassemblies(2), 0u);
  EXPECT_EQ(f.sim.events_processed(), 6u);  // 3 deliveries + 3 GC
  EXPECT_EQ(f.sim.now(), msec(309));
}

TEST(NetworkPacket, StaleGcEventAfterReclassifySparesTheFreshEntry) {
  PacketConfig cfg;
  cfg.mtu = 128;  // fragments land at 10, 110 and 259 ms, as above
  cfg.bandwidth_bps = 1000;
  cfg.bandwidth_burst = 200;
  cfg.reassembly_timeout = msec(200);
  Fixture f(cfg);
  f.net->send(1, 2, std::make_shared<BigMsg>(300));
  f.sim.run_until(msec(50));
  // Drops the entry opened at 10 ms; its GC event, due at 210 ms, stays.
  f.net->reclassify(2, NatConfig::open());
  f.sim.run_until(msec(250));
  // The 110 ms fragment's entry outlives the stale 210 ms event.
  EXPECT_EQ(f.net->pending_reassemblies(2), 1u);
  EXPECT_EQ(f.net->drops().fragments_expired, 0u);
  f.sim.run();
  // The 259 ms fragment joins it, and its own event expires both at 310.
  EXPECT_EQ(f.sim.now(), msec(310));
  EXPECT_EQ(f.sim.events_processed(), 5u);  // 3 deliveries + 2 GC
  EXPECT_EQ(f.net->drops().fragments_expired, 2u);
  EXPECT_EQ(f.net->pending_reassemblies(2), 0u);
}

TEST(NetworkPacket, LossyFragmentsExpireAndFecRecovers) {
  PacketConfig cfg;
  cfg.mtu = 128;
  Fixture plain(cfg, 0.3);
  cfg.fec_repair = 3;
  Fixture fec(cfg, 0.3);

  for (int i = 0; i < 50; ++i) {
    plain.net->send(1, 2, std::make_shared<BigMsg>(300));  // k = 3
    fec.net->send(1, 2, std::make_shared<BigMsg>(300));    // k=3 (+3 repair)
  }
  plain.sim.run();
  fec.sim.run();

  // Same per-fragment loss, but plain needs all 3 of 3 where FEC needs
  // any 3 of 6; with p=0.3 that's ~34% vs ~93% message survival.
  EXPECT_LT(plain.inbox_b.received_from.size(),
            fec.inbox_b.received_from.size());
  EXPECT_GT(plain.net->drops().fragments_expired, 0u);
  EXPECT_EQ(plain.net->pending_reassemblies(2), 0u);  // GC swept them all
  EXPECT_EQ(fec.net->pending_reassemblies(2), 0u);
  // Byte accounting covers every datagram outcome.
  const auto& d = plain.net->drops();
  EXPECT_GT(d.loss_bytes, 0u);
  EXPECT_GT(d.delivered_bytes, 0u);
}

TEST(NetworkPacket, BandwidthCapInflatesDelivery) {
  PacketConfig cfg;
  cfg.bandwidth_bps = 1000;   // 1000 B/s
  cfg.bandwidth_burst = 200;  // one datagram's worth
  Fixture f(cfg);
  // 100-byte blob = 105 wire + 28 UDP/IP = 133 B per datagram.
  f.net->send(1, 2, std::make_shared<BigMsg>(100));
  f.net->send(1, 2, std::make_shared<BigMsg>(100));
  f.sim.run();
  // First datagram fits the burst (delivered at 10 ms); the second owes
  // 66 of its 133 bytes = 66 ms of queueing on top of the 10 ms latency.
  ASSERT_EQ(f.inbox_b.received_from.size(), 2u);
  EXPECT_EQ(f.sim.now(), msec(10) + msec(66));
}

TEST(NetworkPacket, DetachDropsBucketAndAssemblies) {
  PacketConfig cfg;
  cfg.mtu = 128;
  cfg.bandwidth_bps = 500;
  Fixture f(cfg);
  f.net->send(1, 2, std::make_shared<BigMsg>(300));
  f.sim.run_until(msec(11));
  EXPECT_EQ(f.inbox_b.received_from.size(), 1u);
  f.net->detach(2);
  EXPECT_EQ(f.net->pending_reassemblies(2), 0u);
  // Sending to the dead receiver counts dead fragments, crashes nothing.
  f.net->send(1, 2, std::make_shared<BigMsg>(300));
  f.sim.run();
  EXPECT_EQ(f.net->drops().dead_receiver, 3u);
  EXPECT_GT(f.net->drops().dead_receiver_bytes, 0u);
}

}  // namespace
}  // namespace croupier::net
