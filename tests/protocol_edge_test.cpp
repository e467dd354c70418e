// Edge-case tests that drive protocol instances directly (no World):
// malformed/unexpected messages, duplicate deliveries, punch-chain hop
// caps, relay dedup — the inputs a deployed UDP service actually sees.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/gozar.hpp"
#include "baselines/nylon.hpp"
#include "core/croupier.hpp"
#include "net/latency.hpp"

namespace croupier {
namespace {

// Minimal harness: N protocol instances attached to one network.
class ProtoHarness {
 public:
  explicit ProtoHarness(double loss = 0.0) {
    network_ = std::make_unique<net::Network>(
        sim_, std::make_unique<net::ConstantLatency>(sim::msec(10)),
        sim::RngStream(3), net::LossConfig::uniform(loss));
  }

  template <typename Proto, typename Cfg>
  Proto* add(net::NodeId id, const net::NatConfig& nat, const Cfg& cfg) {
    auto shim = std::make_unique<Shim>();
    network_->attach(id, nat, *shim);
    pss::PeerSampler::Context ctx;
    ctx.self = id;
    ctx.nat_type = nat.nat_type();
    ctx.network = network_.get();
    ctx.bootstrap = &bootstrap_;
    ctx.rng = sim::RngStream(1000 + id);
    auto proto = std::make_unique<Proto>(std::move(ctx), cfg);
    Proto* raw = proto.get();
    shim->proto = std::move(proto);
    bootstrap_.add(id, nat.nat_type());
    shims_.push_back(std::move(shim));
    return raw;
  }

  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return *network_; }

 private:
  struct Shim final : net::MessageHandler {
    std::unique_ptr<pss::PeerSampler> proto;
    void on_message(net::NodeId from, const net::Message& msg) override {
      proto->on_message(from, msg);
    }
  };

  sim::Simulator sim_;
  net::BootstrapServer bootstrap_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<Shim>> shims_;
};

core::CroupierConfig ccfg() {
  core::CroupierConfig cfg;
  cfg.base.view_size = 5;
  cfg.base.shuffle_size = 3;
  return cfg;
}

struct UnknownMsg final : net::Message {
  [[nodiscard]] std::uint8_t type() const override { return 0x7E; }
  [[nodiscard]] const char* name() const override { return "unknown"; }
  void encode(wire::Writer& w) const override { w.u8(type()); }
};

TEST(CroupierEdge, IgnoresUnknownMessageType) {
  ProtoHarness h;
  auto* a = h.add<core::Croupier>(1, net::NatConfig::open(), ccfg());
  auto* b = h.add<core::Croupier>(2, net::NatConfig::open(), ccfg());
  a->init();
  b->init();
  h.network().send(1, 2, std::make_shared<UnknownMsg>());
  h.sim().run();
  EXPECT_TRUE(b->public_view().contains(1));  // state undisturbed
}

TEST(CroupierEdge, ResponseWithoutPendingStillMerges) {
  ProtoHarness h;
  auto* a = h.add<core::Croupier>(1, net::NatConfig::open(), ccfg());
  h.add<core::Croupier>(2, net::NatConfig::open(), ccfg());
  a->init();
  // Unsolicited response: no pending entry, merge with empty sent-list.
  auto res = std::make_shared<core::CroupierShuffleRes>();
  res->pub = {{3, net::NatType::Public, 1}};
  h.network().send(2, 1, std::move(res));
  h.sim().run();
  EXPECT_TRUE(a->public_view().contains(3));
}

TEST(CroupierEdge, DuplicateResponseIsHarmless) {
  ProtoHarness h;
  auto* a = h.add<core::Croupier>(1, net::NatConfig::open(), ccfg());
  h.add<core::Croupier>(2, net::NatConfig::open(), ccfg());
  a->init();
  for (int i = 0; i < 2; ++i) {
    auto res = std::make_shared<core::CroupierShuffleRes>();
    res->pub = {{3, net::NatType::Public, 1}};
    res->estimates = {{7, 1, 4, 0}};
    h.network().send(2, 1, std::move(res));
  }
  h.sim().run();
  EXPECT_TRUE(a->public_view().contains(3));
  EXPECT_EQ(a->estimator().cached_count(), 1u);  // deduped by origin
}

TEST(CroupierEdge, PrivateNodeDropsMisdirectedRequest) {
  ProtoHarness h;
  h.add<core::Croupier>(1, net::NatConfig::open(), ccfg());
  auto* b = h.add<core::Croupier>(2, net::NatConfig::natted(), ccfg());
  b->init();
  // Open b's NAT toward 1 so the request even arrives.
  b->round();
  h.sim().run();
  auto req = std::make_shared<core::CroupierShuffleReq>();
  req->sender = pss::NodeDescriptor{1, net::NatType::Public, 0};
  h.network().send(1, 2, std::move(req));
  h.sim().run();
  // No crash, no response counted into its estimator.
  EXPECT_FALSE(b->estimator().local_estimate().has_value());
}

TEST(CroupierEdge, StaleEstimatesOnWireAreRejected) {
  ProtoHarness h;
  auto* a = h.add<core::Croupier>(1, net::NatConfig::open(), ccfg());
  a->init();
  auto res = std::make_shared<core::CroupierShuffleRes>();
  res->estimates = {{7, 1, 4, 200}};  // age 200 > gamma 50
  h.network().send(1, 1, std::move(res));  // self-send for delivery
  h.sim().run();
  EXPECT_EQ(a->estimator().cached_count(), 0u);
}

TEST(CroupierEdge, TailTargetRemovedEvenWhenResponseLost) {
  ProtoHarness h;
  auto* a = h.add<core::Croupier>(1, net::NatConfig::open(), ccfg());
  h.add<core::Croupier>(2, net::NatConfig::open(), ccfg());
  a->init();
  ASSERT_TRUE(a->public_view().contains(2));
  h.network().detach(2);  // target dies before the round
  a->round();
  h.sim().run();
  EXPECT_FALSE(a->public_view().contains(2));  // removed by tail selection
}

TEST(CroupierEdge, RebootstrapCountsWhenViewRunsDry) {
  ProtoHarness h;
  auto* a = h.add<core::Croupier>(1, net::NatConfig::open(), ccfg());
  // No init(): the view starts empty, so the first round re-bootstraps.
  a->round();
  EXPECT_EQ(a->rebootstrap_count(), 1u);
}

baselines::NylonConfig ncfg() {
  baselines::NylonConfig cfg;
  cfg.base.view_size = 5;
  cfg.base.shuffle_size = 3;
  cfg.max_punch_hops = 4;
  return cfg;
}

TEST(NylonEdge, PunchReqBeyondHopCapIsDropped) {
  ProtoHarness h;
  auto* a = h.add<baselines::Nylon>(1, net::NatConfig::open(), ncfg());
  h.add<baselines::Nylon>(2, net::NatConfig::open(), ncfg());
  a->init();
  auto punch = std::make_shared<baselines::NylonPunchReq>();
  punch->initiator = 2;
  punch->target = 99;  // unknown target
  punch->hops = 4;     // at the cap
  const auto sent_before = h.network().meter().totals(1).msgs_sent;
  h.network().send(2, 1, std::move(punch));
  h.sim().run();
  // Node 1 must not forward anything.
  EXPECT_EQ(h.network().meter().totals(1).msgs_sent, sent_before);
}

TEST(NylonEdge, PunchForTargetSelfAnswersDirectly) {
  ProtoHarness h;
  auto* a = h.add<baselines::Nylon>(1, net::NatConfig::open(), ncfg());
  h.add<baselines::Nylon>(2, net::NatConfig::open(), ncfg());
  a->init();
  auto punch = std::make_shared<baselines::NylonPunchReq>();
  punch->initiator = 2;
  punch->target = 1;  // the receiver itself
  h.network().send(2, 1, std::move(punch));
  h.sim().run();
  // Node 1 responded with a PunchOpen to the initiator.
  EXPECT_GE(h.network().meter().totals(2).msgs_received, 1u);
}

struct NullHandler final : net::MessageHandler {
  void on_message(net::NodeId, const net::Message&) override {}
};

TEST(NylonEdge, RoutingTableBounded) {
  auto cfg = ncfg();
  cfg.routing_table_size = 8;
  ProtoHarness h;
  auto* a = h.add<baselines::Nylon>(1, net::NatConfig::open(), cfg);
  a->init();
  // Feed many responses, each teaching routes to fresh targets.
  NullHandler null_handler;
  for (net::NodeId origin = 100; origin < 130; ++origin) {
    auto res = std::make_shared<baselines::NylonShuffleRes>();
    for (net::NodeId t = 0; t < 3; ++t) {
      res->entries.push_back(
          {origin * 10 + t, net::NatType::Private, 1, net::kNilNode});
    }
    h.network().attach(origin, net::NatConfig::open(), null_handler);
    h.network().send(origin, 1, std::move(res));
    h.sim().run();  // deliver before the origin detaches
    h.network().detach(origin);
  }
  EXPECT_LE(a->routing_entry_count(), 8u);
  EXPECT_GT(a->routing_entry_count(), 0u);
}

baselines::GozarConfig gcfg() {
  baselines::GozarConfig cfg;
  cfg.base.view_size = 5;
  cfg.base.shuffle_size = 3;
  return cfg;
}

TEST(GozarEdge, DuplicateRelayCopiesAnsweredOnce) {
  ProtoHarness h;
  auto* a = h.add<baselines::Gozar>(1, net::NatConfig::open(), gcfg());
  h.add<baselines::Gozar>(2, net::NatConfig::open(), gcfg());
  a->init();
  baselines::GozarShuffleReq req;
  req.sender = baselines::GozarDescriptor{2, net::NatType::Public, 0, {}};
  req.nonce = 42;
  const auto received_before = h.network().meter().totals(2).msgs_received;
  h.network().send(2, 1, std::make_shared<baselines::GozarShuffleReq>(req));
  h.network().send(2, 1, std::make_shared<baselines::GozarShuffleReq>(req));
  h.sim().run();
  // Exactly one response despite two copies of the same (sender, nonce).
  EXPECT_EQ(h.network().meter().totals(2).msgs_received,
            received_before + 1);
}

TEST(GozarEdge, DistinctNoncesAnsweredSeparately) {
  ProtoHarness h;
  auto* a = h.add<baselines::Gozar>(1, net::NatConfig::open(), gcfg());
  h.add<baselines::Gozar>(2, net::NatConfig::open(), gcfg());
  a->init();
  for (std::uint16_t nonce : {1, 2}) {
    baselines::GozarShuffleReq req;
    req.sender = baselines::GozarDescriptor{2, net::NatType::Public, 0, {}};
    req.nonce = nonce;
    h.network().send(2, 1,
                     std::make_shared<baselines::GozarShuffleReq>(req));
  }
  h.sim().run();
  EXPECT_EQ(h.network().meter().totals(2).msgs_received, 2u);
}

TEST(GozarEdge, RelayForwardsToFinalTarget) {
  ProtoHarness h;
  h.add<baselines::Gozar>(1, net::NatConfig::open(), gcfg());
  h.add<baselines::Gozar>(2, net::NatConfig::open(), gcfg());
  auto* c = h.add<baselines::Gozar>(3, net::NatConfig::natted(), gcfg());
  c->init();          // c pings its parents (node 1 and/or 2)
  h.sim().run();

  // Route a request to private node 3 via its parent.
  ASSERT_FALSE(c->parents().empty());
  const net::NodeId relay = c->parents().front();
  auto rel = std::make_shared<baselines::GozarRelayedReq>();
  rel->final_target = 3;
  rel->inner.sender =
      baselines::GozarDescriptor{2, net::NatType::Public, 0, {}};
  rel->inner.nonce = 7;
  h.network().send(2, relay, std::move(rel));
  h.sim().run();
  // The relayed request reached node 3 through its warm NAT mapping and 3
  // responded directly to the public initiator.
  EXPECT_GE(h.network().meter().totals(3).msgs_received, 1u);
  EXPECT_GE(h.network().meter().totals(2).msgs_received, 1u);
}

}  // namespace
}  // namespace croupier
