// Descriptor wire-format tests (base, Gozar, Nylon variants) and message
// sizing.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/arrg.hpp"
#include "baselines/cyclon.hpp"
#include "baselines/gozar.hpp"
#include "baselines/nylon.hpp"
#include "core/croupier.hpp"
#include "natid/natid.hpp"
#include "pss/descriptor.hpp"

namespace croupier {
namespace {

TEST(Descriptor, RoundTrip) {
  pss::NodeDescriptor d{42, net::NatType::Private, 17};
  wire::Writer w;
  pss::encode(w, d);
  wire::Reader r(w.data());
  const auto back = pss::decode_descriptor(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.nat_type, net::NatType::Private);
  EXPECT_EQ(back.age, 17u);
}

TEST(Descriptor, WireSizeMatchesConstant) {
  wire::Writer w;
  pss::encode(w, pss::NodeDescriptor{1, net::NatType::Public, 0});
  EXPECT_EQ(w.size(), pss::kDescriptorWireBytes);
}

TEST(Descriptor, AgeSaturatesOnWire) {
  pss::NodeDescriptor d{1, net::NatType::Public, 1000};
  wire::Writer w;
  pss::encode(w, d);
  wire::Reader r(w.data());
  EXPECT_EQ(pss::decode_descriptor(r).age, 255u);
}

TEST(Descriptor, ListRoundTrip) {
  std::vector<pss::NodeDescriptor> v{
      {1, net::NatType::Public, 0},
      {2, net::NatType::Private, 5},
      {3, net::NatType::Public, 250},
  };
  wire::Writer w;
  pss::encode(w, v);
  wire::Reader r(w.data());
  const auto back = pss::decode_descriptors(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, v);
}

// A list's count is one byte. 255 entries survive the trip; one more
// asserts rather than write a count that disagrees with the entries
// that follow it.
TEST(Descriptor, ListCountIsOneByte) {
  std::vector<pss::NodeDescriptor> v(wire::kMaxListEntries);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i].id = static_cast<net::NodeId>(i + 1);
  }
  wire::Writer w;
  pss::encode(w, v);
  wire::Reader r(w.data());
  EXPECT_EQ(pss::decode_descriptors(r), v);
  EXPECT_TRUE(r.exhausted());

  v.push_back(pss::NodeDescriptor{});
  wire::Writer longer;
  EXPECT_DEATH(pss::encode(longer, v), "at most 255 entries");
}

TEST(Descriptor, EmptyListRoundTrip) {
  wire::Writer w;
  pss::encode(w, std::vector<pss::NodeDescriptor>{});
  wire::Reader r(w.data());
  EXPECT_TRUE(pss::decode_descriptors(r).empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Descriptor, SelfIsFresh) {
  const auto d = pss::NodeDescriptor::self(9, net::NatType::Private);
  EXPECT_EQ(d.id, 9u);
  EXPECT_EQ(d.age, 0u);
  EXPECT_EQ(d.nat_type, net::NatType::Private);
}

TEST(GozarDescriptor, RoundTripWithParents) {
  baselines::GozarDescriptor d;
  d.id = 7;
  d.nat_type = net::NatType::Private;
  d.age = 3;
  d.parents = {10, 11, 12};
  wire::Writer w;
  baselines::encode(w, d);
  wire::Reader r(w.data());
  const auto back = baselines::decode_gozar_descriptor(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, d);
}

TEST(GozarDescriptor, PublicDescriptorIsSmaller) {
  baselines::GozarDescriptor pub{7, net::NatType::Public, 0, {}};
  baselines::GozarDescriptor priv{8, net::NatType::Private, 0, {1, 2, 3}};
  wire::Writer wp;
  baselines::encode(wp, pub);
  wire::Writer wv;
  baselines::encode(wv, priv);
  // 3 parents x 6 B: the per-descriptor premium Gozar pays.
  EXPECT_EQ(wv.size() - wp.size(), 18u);
}

TEST(NylonDescriptor, LearnedFromIsLocalOnly) {
  baselines::NylonDescriptor d{5, net::NatType::Private, 2, 77};
  wire::Writer w;
  baselines::encode(w, d);
  EXPECT_EQ(w.size(), pss::kDescriptorWireBytes);  // same as base layout
  wire::Reader r(w.data());
  const auto back = baselines::decode_nylon_descriptor(r);
  EXPECT_EQ(back.id, 5u);
  EXPECT_EQ(back.learned_from, net::kNilNode);  // not on the wire
}

TEST(Messages, CroupierShuffleWireSize) {
  // 10 descriptors + 11 estimates: the configuration the paper quotes as
  // ~50 B of estimation payload per shuffle message.
  core::CroupierShuffleReq req;
  req.sender = pss::NodeDescriptor::self(1, net::NatType::Public);
  for (net::NodeId i = 0; i < 5; ++i) {
    req.pub.push_back({i + 10, net::NatType::Public, 1});
    req.pri.push_back({i + 20, net::NatType::Private, 1});
  }
  for (net::NodeId i = 0; i < 10; ++i) {
    req.estimates.push_back({i, 10, 40, 1});
  }
  // 1 type + 8 sender + (1+40) pub + (1+40) pri + (1+50) estimates = 142.
  EXPECT_EQ(req.wire_size(), 142u);
}

std::vector<pss::NodeDescriptor> base_descs(std::size_t n) {
  std::vector<pss::NodeDescriptor> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<net::NodeId>(3 * i + 1),
                   i % 2 == 0 ? net::NatType::Public : net::NatType::Private,
                   static_cast<std::uint16_t>(i * 97)});
  }
  return out;
}

std::vector<baselines::GozarDescriptor> gozar_descs(std::size_t n) {
  std::vector<baselines::GozarDescriptor> out;
  for (std::size_t i = 0; i < n; ++i) {
    baselines::GozarDescriptor d{static_cast<net::NodeId>(i + 5),
                                 net::NatType::Private,
                                 static_cast<std::uint16_t>(i), {}};
    for (std::size_t p = 0; p < i % 4; ++p) {
      d.parents.push_back(static_cast<net::NodeId>(100 + p));
    }
    out.push_back(d);
  }
  return out;
}

std::vector<baselines::NylonDescriptor> nylon_descs(std::size_t n) {
  std::vector<baselines::NylonDescriptor> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<net::NodeId>(i + 9), net::NatType::Private,
                   static_cast<std::uint16_t>(300 * i), 4});
  }
  return out;
}

// Every estimate origin passes 0xffff once n > 2; counts stay in the
// byte range that entries hold.
std::vector<core::EstimateEntry> estimates(std::size_t n) {
  std::vector<core::EstimateEntry> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<net::NodeId>(0xfff0 + 0x1000 * i),
                   static_cast<std::uint8_t>(i * 3 % 256),
                   static_cast<std::uint8_t>(255 - i), 7});
  }
  return out;
}

/// One value of each of the 22 message types in src/, with every list
/// `n` entries long (estimate lists 255 when n is the largest size).
std::vector<std::unique_ptr<net::Message>> every_message(std::size_t n) {
  const std::size_t n_est = n >= 20 ? 255 : n;
  std::vector<std::unique_ptr<net::Message>> out;

  auto creq = std::make_unique<core::CroupierShuffleReq>();
  creq->sender = base_descs(1).front();
  creq->pub = base_descs(n);
  creq->pri = base_descs(n);
  creq->estimates = estimates(n_est);
  out.push_back(std::move(creq));
  auto cres = std::make_unique<core::CroupierShuffleRes>();
  cres->pub = base_descs(n);
  cres->pri = base_descs(n);
  cres->estimates = estimates(n_est);
  out.push_back(std::move(cres));

  auto cyreq = std::make_unique<baselines::CyclonShuffleReq>();
  cyreq->sender = base_descs(1).front();
  cyreq->entries = base_descs(n);
  out.push_back(std::move(cyreq));
  auto cyres = std::make_unique<baselines::CyclonShuffleRes>();
  cyres->entries = base_descs(n);
  out.push_back(std::move(cyres));

  auto areq = std::make_unique<baselines::ArrgShuffleReq>();
  areq->sender = base_descs(1).front();
  areq->entries = base_descs(n);
  out.push_back(std::move(areq));
  auto ares = std::make_unique<baselines::ArrgShuffleRes>();
  ares->entries = base_descs(n);
  out.push_back(std::move(ares));

  auto greq = std::make_unique<baselines::GozarShuffleReq>();
  greq->sender = gozar_descs(4).back();
  greq->nonce = 0xbeef;
  greq->entries = gozar_descs(n);
  auto gres = std::make_unique<baselines::GozarShuffleRes>();
  gres->responder = 77;
  gres->entries = gozar_descs(n);
  auto grelreq = std::make_unique<baselines::GozarRelayedReq>();
  grelreq->final_target = 12;
  grelreq->inner = *greq;
  auto grelres = std::make_unique<baselines::GozarRelayedRes>();
  grelres->final_target = 13;
  grelres->inner = *gres;
  out.push_back(std::move(greq));
  out.push_back(std::move(gres));
  out.push_back(std::move(grelreq));
  out.push_back(std::move(grelres));
  out.push_back(std::make_unique<baselines::GozarPing>());
  out.push_back(std::make_unique<baselines::GozarPong>());

  auto nreq = std::make_unique<baselines::NylonShuffleReq>();
  nreq->sender = nylon_descs(1).front();
  nreq->entries = nylon_descs(n);
  out.push_back(std::move(nreq));
  auto nres = std::make_unique<baselines::NylonShuffleRes>();
  nres->entries = nylon_descs(n);
  out.push_back(std::move(nres));
  auto punch = std::make_unique<baselines::NylonPunchReq>();
  punch->initiator = 3;
  punch->initiator_type = net::NatType::Private;
  punch->target = 0xfffffffe;
  punch->hops = static_cast<std::uint8_t>(n);
  out.push_back(std::move(punch));
  auto connect = std::make_unique<baselines::NylonConnect>();
  connect->initiator = 8;
  out.push_back(std::move(connect));
  out.push_back(std::make_unique<baselines::NylonPunchOpen>());
  out.push_back(std::make_unique<baselines::NylonProbe>());
  out.push_back(std::make_unique<baselines::NylonKeepalive>());

  auto matching = std::make_unique<natid::MatchingIpTest>();
  for (std::size_t i = 0; i < n; ++i) {
    matching->probed.push_back(static_cast<net::NodeId>(i + 40));
  }
  out.push_back(std::move(matching));
  auto fwd = std::make_unique<natid::ForwardTest>();
  fwd->client = 6;
  fwd->observed_ip = net::IpAddr{0x52000006u};
  out.push_back(std::move(fwd));
  auto resp = std::make_unique<natid::ForwardResp>();
  resp->observed_ip = net::IpAddr{0x0a000001u};
  out.push_back(std::move(resp));
  return out;
}

// wire_size() counts with a writer that stores nothing; it must agree
// with the bytes a real encode() produces.
TEST(Messages, WireSizeMatchesEncodeForEveryType) {
  for (const std::size_t n : {0u, 1u, 10u, 20u}) {
    std::set<std::string> names;
    for (const auto& msg : every_message(n)) {
      wire::Writer w;
      msg->encode(w);
      EXPECT_EQ(msg->wire_size(), w.data().size())
          << msg->name() << ", lists of " << n;
      names.insert(msg->name());
    }
    EXPECT_EQ(names.size(), 22u);
  }
}

TEST(Messages, CountingWriterCountsEveryWidth) {
  auto w = wire::Writer::counting();
  w.u8(1);
  w.u16(2);
  w.u32(3);
  w.u64(4);
  const std::vector<std::byte> blob(5);
  w.bytes(blob);
  EXPECT_EQ(w.size(), 20u);
  EXPECT_DEATH((void)w.data(), "counting writer");
  EXPECT_DEATH((void)std::move(w).take(), "counting writer");
}

}  // namespace
}  // namespace croupier
