// Descriptor wire-format tests (base, Gozar, Nylon variants) and message
// sizing.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "every_message.hpp"
#include "pss/descriptor.hpp"

namespace croupier {
namespace {

TEST(Descriptor, RoundTrip) {
  pss::NodeDescriptor d{42, net::NatType::Private, 17};
  wire::Writer w;
  layout(w, d);
  wire::Reader r(w.data());
  pss::NodeDescriptor back;
  layout(r, back);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.nat_type, net::NatType::Private);
  EXPECT_EQ(back.age, 17u);
}

TEST(Descriptor, WireSizeMatchesConstant) {
  wire::Writer w;
  layout(w, pss::NodeDescriptor{1, net::NatType::Public, 0});
  EXPECT_EQ(w.size(), pss::kDescriptorWireBytes);
}

TEST(Descriptor, AgeSaturatesOnWire) {
  pss::NodeDescriptor d{1, net::NatType::Public, 1000};
  wire::Writer w;
  layout(w, d);
  wire::Reader r(w.data());
  pss::NodeDescriptor back;
  layout(r, back);
  EXPECT_EQ(back.age, 255u);
}

TEST(Descriptor, ListRoundTrip) {
  std::vector<pss::NodeDescriptor> v{
      {1, net::NatType::Public, 0},
      {2, net::NatType::Private, 5},
      {3, net::NatType::Public, 250},
  };
  wire::Writer w;
  layout(w, v);
  wire::Reader r(w.data());
  std::vector<pss::NodeDescriptor> back;
  layout(r, back);
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
  layout(w, v);
  wire::Reader r(w.data());
  std::vector<pss::NodeDescriptor> back;
  layout(r, back);
  EXPECT_EQ(back, v);
  EXPECT_TRUE(r.exhausted());

  v.push_back(pss::NodeDescriptor{});
  wire::Writer longer;
  EXPECT_DEATH(layout(longer, v), "at most 255 entries");
}

TEST(Descriptor, EmptyListRoundTrip) {
  wire::Writer w;
  layout(w, std::vector<pss::NodeDescriptor>{});
  wire::Reader r(w.data());
  std::vector<pss::NodeDescriptor> back;
  layout(r, back);
  EXPECT_TRUE(back.empty());
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
  layout(w, d);
  wire::Reader r(w.data());
  baselines::GozarDescriptor back;
  layout(r, back);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, d);
}

TEST(GozarDescriptor, PublicDescriptorIsSmaller) {
  baselines::GozarDescriptor pub{7, net::NatType::Public, 0, {}};
  baselines::GozarDescriptor priv{8, net::NatType::Private, 0, {1, 2, 3}};
  wire::Writer wp;
  layout(wp, pub);
  wire::Writer wv;
  layout(wv, priv);
  // 3 parents x 6 B: the per-descriptor premium Gozar pays.
  EXPECT_EQ(wv.size() - wp.size(), 18u);
}

TEST(NylonDescriptor, LearnedFromIsLocalOnly) {
  baselines::NylonDescriptor d{5, net::NatType::Private, 2, 77};
  wire::Writer w;
  layout(w, d);
  EXPECT_EQ(w.size(), pss::kDescriptorWireBytes);  // same as base layout
  wire::Reader r(w.data());
  baselines::NylonDescriptor back;
  layout(r, back);
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

// wire_size() counts with a writer that stores nothing; it must agree
// with the bytes a real encode() produces.
TEST(Messages, WireSizeMatchesEncodeForEveryType) {
  for (const std::size_t n : {0u, 1u, 10u, 20u}) {
    std::set<std::string> names;
    croupier::testing::for_each_message(n, [&](const net::Message& msg) {
      wire::Writer w;
      msg.encode(w);
      EXPECT_EQ(msg.wire_size(), w.data().size())
          << msg.name() << ", lists of " << n;
      names.insert(msg.name());
    });
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
