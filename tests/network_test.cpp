// Network substrate tests: delivery, NAT enforcement, loss, traffic
// accounting, and lifecycle.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace croupier::net {
namespace {

using sim::msec;
using sim::sec;

struct TestMsg final : Message {
  std::uint32_t payload = 0;
  explicit TestMsg(std::uint32_t v = 0) : payload(v) {}
  [[nodiscard]] std::uint8_t type() const override { return 0x7F; }
  [[nodiscard]] const char* name() const override { return "test"; }
  void encode(wire::Writer& w) const override {
    w.u8(type());
    w.u32(payload);
  }
};

struct Inbox final : MessageHandler {
  std::vector<std::pair<NodeId, std::uint32_t>> received;
  void on_message(NodeId from, const Message& msg) override {
    received.emplace_back(from,
                          static_cast<const TestMsg&>(msg).payload);
  }
};

struct Fixture {
  sim::Simulator sim;
  std::unique_ptr<Network> net;
  Inbox inbox_a, inbox_b, inbox_c;

  explicit Fixture(double loss = 0.0) {
    net = std::make_unique<Network>(
        sim, std::make_unique<ConstantLatency>(msec(10)),
        sim::RngStream(7), LossConfig::uniform(loss));
  }
};

TEST(Network, DeliversBetweenPublicNodes) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::open(), f.inbox_b);
  f.net->send(1, 2, std::make_shared<TestMsg>(99));
  f.sim.run();
  ASSERT_EQ(f.inbox_b.received.size(), 1u);
  EXPECT_EQ(f.inbox_b.received[0], std::make_pair(NodeId{1}, 99u));
}

TEST(Network, DeliveryTakesLatency) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::open(), f.inbox_b);
  f.net->send(1, 2, std::make_shared<TestMsg>());
  f.sim.run_until(msec(9));
  EXPECT_TRUE(f.inbox_b.received.empty());
  f.sim.run_until(msec(10));
  EXPECT_EQ(f.inbox_b.received.size(), 1u);
}

TEST(Network, UnsolicitedToPrivateIsFiltered) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::natted(), f.inbox_b);
  f.net->send(1, 2, std::make_shared<TestMsg>());
  f.sim.run();
  EXPECT_TRUE(f.inbox_b.received.empty());
  EXPECT_EQ(f.net->drops().nat_filtered, 1u);
}

TEST(Network, PrivateReachableAfterItInitiates) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::natted(), f.inbox_b);
  f.net->send(2, 1, std::make_shared<TestMsg>(1));  // opens 2's mapping
  f.sim.run();
  ASSERT_EQ(f.inbox_a.received.size(), 1u);
  f.net->send(1, 2, std::make_shared<TestMsg>(2));  // reply passes NAT
  f.sim.run();
  ASSERT_EQ(f.inbox_b.received.size(), 1u);
}

TEST(Network, PrivateToPrivateNeedsMutualMappings) {
  Fixture f;
  f.net->attach(1, NatConfig::natted(), f.inbox_a);
  f.net->attach(2, NatConfig::natted(), f.inbox_b);
  // 1 -> 2 blocked (2 never sent to 1)...
  f.net->send(1, 2, std::make_shared<TestMsg>());
  f.sim.run();
  EXPECT_TRUE(f.inbox_b.received.empty());
  // ...but the attempt opened 1's own mapping toward 2, so 2 -> 1 passes
  // (the hole-punching primitive Nylon exploits).
  f.net->send(2, 1, std::make_shared<TestMsg>(5));
  f.sim.run();
  ASSERT_EQ(f.inbox_a.received.size(), 1u);
}

TEST(Network, MappingExpiryBlocksLateReply) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::natted(FilteringPolicy::AddressAndPortDependent,
                                     sec(30)),
                f.inbox_b);
  f.net->send(2, 1, std::make_shared<TestMsg>());
  f.sim.run();
  // 31 s later the mapping is gone.
  f.sim.run_until(sec(31));
  f.net->send(1, 2, std::make_shared<TestMsg>());
  f.sim.run();
  EXPECT_TRUE(f.inbox_b.received.empty());
}

TEST(Network, SendToDeadNodeDropsQuietly) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->send(1, 99, std::make_shared<TestMsg>());
  f.sim.run();
  EXPECT_EQ(f.net->drops().dead_receiver, 1u);
}

TEST(Network, DetachDropsInFlight) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::open(), f.inbox_b);
  f.net->send(1, 2, std::make_shared<TestMsg>());
  f.sim.run_until(msec(5));  // packet in flight
  f.net->detach(2);
  f.sim.run();
  EXPECT_TRUE(f.inbox_b.received.empty());
  EXPECT_EQ(f.net->drops().dead_receiver, 1u);
}

TEST(Network, LossDropsRoughlyExpectedFraction) {
  Fixture f(0.2);
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::open(), f.inbox_b);
  const int sends = 5000;
  for (int i = 0; i < sends; ++i) {
    f.net->send(1, 2, std::make_shared<TestMsg>());
  }
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(f.inbox_b.received.size()),
              sends * 0.8, sends * 0.05);
  EXPECT_NEAR(static_cast<double>(f.net->drops().loss), sends * 0.2,
              sends * 0.05);
}

TEST(LossConfig, LosslessFlatAndClassPairForms) {
  // The Network skips the loss die for lossless configs and the class
  // lookups for flat ones.
  EXPECT_TRUE(LossConfig{}.lossless());
  EXPECT_TRUE(LossConfig::uniform(0.0).lossless());

  const auto uniform = LossConfig::uniform(0.25);
  EXPECT_FALSE(uniform.lossless());
  EXPECT_TRUE(uniform.flat());
  EXPECT_EQ(uniform.probability(0, NatType::Public, NatType::Private), 0.25);

  LossConfig structured;
  structured.rate = {{{0.0, 0.0}, {0.4, 0.4}}};  // private senders only
  EXPECT_FALSE(structured.lossless());
  EXPECT_FALSE(structured.flat());
}

TEST(LossConfig, ClassPairRatesAndActivationTime) {
  LossConfig cfg;
  cfg.rate = {{{0.1, 0.0}, {0.4, 0.3}}};
  cfg.after = sec(90);
  // Loss-free before the activation instant, per-pair rates from it on.
  EXPECT_EQ(cfg.probability(sec(89), NatType::Private, NatType::Public), 0.0);
  EXPECT_EQ(cfg.probability(sec(90), NatType::Private, NatType::Public), 0.4);
  EXPECT_EQ(cfg.probability(sec(90), NatType::Public, NatType::Public), 0.1);
  EXPECT_EQ(cfg.probability(sec(90), NatType::Public, NatType::Private), 0.0);
  EXPECT_EQ(cfg.probability(sec(90), NatType::Private, NatType::Private),
            0.3);
}

TEST(Network, ClassPairRatesDropOnlyTheConfiguredDirection) {
  // Private->public packets drop at 50%; public->private replies are
  // untouched (asymmetric loss, the estimator's third-assumption
  // violation the bench sweeps measure).
  sim::Simulator sim;
  LossConfig cfg;
  cfg.rate = {{{0.0, 0.0}, {0.5, 0.5}}};
  Network net(sim, std::make_unique<ConstantLatency>(msec(10)),
              sim::RngStream(7), cfg);
  Inbox pub_inbox, priv_inbox;
  net.attach(1, NatConfig::open(), pub_inbox);
  net.attach(2, NatConfig::natted(), priv_inbox);

  const int sends = 2000;
  for (int i = 0; i < sends; ++i) {
    net.send(2, 1, std::make_shared<TestMsg>());  // lossy direction
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(net.drops().loss), sends * 0.5,
              sends * 0.05);
  const auto survived = pub_inbox.received.size();
  EXPECT_NEAR(static_cast<double>(survived), sends * 0.5, sends * 0.05);

  // Reverse direction (2's NAT mapping toward 1 is open): loss-free.
  const auto dropped_before = net.drops().loss;
  for (int i = 0; i < 100; ++i) {
    net.send(1, 2, std::make_shared<TestMsg>());
  }
  sim.run();
  EXPECT_EQ(net.drops().loss, dropped_before);
  EXPECT_EQ(priv_inbox.received.size(), 100u);
}

TEST(Network, TimeVaryingLossActivatesMidRun) {
  sim::Simulator sim;
  LossConfig cfg;
  cfg.rate = {{{0.5, 0.5}, {0.5, 0.5}}};
  cfg.after = sec(10);
  Network net(sim, std::make_unique<ConstantLatency>(msec(10)),
              sim::RngStream(11), cfg);
  Inbox a, b;
  net.attach(1, NatConfig::open(), a);
  net.attach(2, NatConfig::open(), b);

  for (int i = 0; i < 500; ++i) {
    net.send(1, 2, std::make_shared<TestMsg>());
  }
  sim.run();
  EXPECT_EQ(net.drops().loss, 0u);  // before activation: loss-free

  sim.run_until(sec(10));
  for (int i = 0; i < 500; ++i) {
    net.send(1, 2, std::make_shared<TestMsg>());
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(net.drops().loss), 250.0, 40.0);
}

TEST(Network, TrafficChargedWithHeaders) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::open(), f.inbox_b);
  f.net->send(1, 2, std::make_shared<TestMsg>());
  f.sim.run();
  const auto sent = f.net->meter().totals(1);
  const auto rcvd = f.net->meter().totals(2);
  // TestMsg encodes 5 bytes; plus 28 header bytes.
  EXPECT_EQ(sent.bytes_sent, 33u);
  EXPECT_EQ(sent.msgs_sent, 1u);
  EXPECT_EQ(rcvd.bytes_received, 33u);
  EXPECT_EQ(rcvd.msgs_received, 1u);
}

TEST(Network, LostPacketStillChargesSender) {
  Fixture f(1e-9);  // loss enabled but negligible
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::natted(), f.inbox_b);
  f.net->send(1, 2, std::make_shared<TestMsg>());  // will be NAT-filtered
  f.sim.run();
  EXPECT_EQ(f.net->meter().totals(1).msgs_sent, 1u);
  EXPECT_EQ(f.net->meter().totals(2).msgs_received, 0u);
}

TEST(Network, MeterResetClearsWindow) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::open(), f.inbox_b);
  f.net->send(1, 2, std::make_shared<TestMsg>());
  f.sim.run();
  f.net->meter().reset();
  EXPECT_EQ(f.net->meter().totals(1).bytes_sent, 0u);
}

TEST(Network, LocalAndPublicIpsDifferOnlyBehindNat) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::natted(), f.inbox_b);
  f.net->attach(3, NatConfig::firewalled(), f.inbox_c);
  EXPECT_EQ(f.net->local_ip(1), f.net->public_ip(1));
  EXPECT_NE(f.net->local_ip(2), f.net->public_ip(2));
  // Firewalled host: public address, no translation.
  EXPECT_EQ(f.net->local_ip(3), f.net->public_ip(3));
}

TEST(Network, TypeOfReportsGroundTruth) {
  Fixture f;
  f.net->attach(1, NatConfig::upnp(), f.inbox_a);
  f.net->attach(2, NatConfig::natted(), f.inbox_b);
  EXPECT_EQ(f.net->type_of(1), NatType::Public);
  EXPECT_EQ(f.net->type_of(2), NatType::Private);
}

TEST(Network, UpnpNodeReceivesUnsolicited) {
  Fixture f;
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::upnp(), f.inbox_b);
  f.net->send(1, 2, std::make_shared<TestMsg>());
  f.sim.run();
  EXPECT_EQ(f.inbox_b.received.size(), 1u);
}

TEST(Network, AttachedCountTracksLifecycle) {
  Fixture f;
  EXPECT_EQ(f.net->attached_count(), 0u);
  f.net->attach(1, NatConfig::open(), f.inbox_a);
  f.net->attach(2, NatConfig::open(), f.inbox_b);
  EXPECT_EQ(f.net->attached_count(), 2u);
  f.net->detach(1);
  EXPECT_EQ(f.net->attached_count(), 1u);
  EXPECT_FALSE(f.net->attached(1));
  EXPECT_TRUE(f.net->attached(2));
}

TEST(Network, IpToStringFormats) {
  EXPECT_EQ(to_string(IpAddr{0x0a000001u}), "10.0.0.1");
  EXPECT_EQ(to_string(IpAddr{0xffffffffu}), "255.255.255.255");
}

}  // namespace
}  // namespace croupier::net
