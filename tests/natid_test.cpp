// NAT-type identification protocol tests (paper §V, Algorithm 1): every
// connectivity class must classify correctly, including the subtle
// endpoint-independent-filtering case.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "natid/natid.hpp"
#include "net/latency.hpp"
#include "runtime/spec.hpp"
#include "test_util.hpp"

namespace croupier::natid {
namespace {

// Standalone harness: a few public responder nodes plus one client under
// test, without the full World runtime.
struct Harness {
  sim::Simulator sim;
  net::BootstrapServer bootstrap;
  std::unique_ptr<net::Network> network;

  struct ResponderNode final : net::MessageHandler {
    std::unique_ptr<NatIdResponder> responder;
    void on_message(net::NodeId from, const net::Message& msg) override {
      responder->on_message(from, msg);
    }
  };
  struct ClientNode final : net::MessageHandler {
    std::unique_ptr<NatIdClient> client;
    void on_message(net::NodeId from, const net::Message& msg) override {
      client->on_message(from, msg);
    }
  };

  std::vector<std::unique_ptr<ResponderNode>> responders;
  ClientNode client_node;
  std::optional<net::NatType> outcome;

  explicit Harness(std::size_t publics = 4) {
    network = std::make_unique<net::Network>(
        sim, std::make_unique<net::ConstantLatency>(sim::msec(30)),
        sim::RngStream(5));
    for (net::NodeId id = 1; id <= publics; ++id) {
      auto node = std::make_unique<ResponderNode>();
      network->attach(id, net::NatConfig::open(), *node);
      node->responder = std::make_unique<NatIdResponder>(
          id, *network, bootstrap, sim::RngStream(100 + id));
      bootstrap.add(id, net::NatType::Public);
      responders.push_back(std::move(node));
    }
  }

  sim::SimTime decided_at = 0;

  net::NatType classify(const net::NatConfig& cfg,
                        NatIdClient::Config client_cfg = {}) {
    const net::NodeId id = 1000;
    network->attach(id, cfg, client_node);
    client_cfg.upnp_available = cfg.cls == net::ConnectivityClass::UpnpIgd;
    client_node.client = std::make_unique<NatIdClient>(
        id, *network, bootstrap, sim::RngStream(77), client_cfg,
        [this](net::NatType t) {
          outcome = t;
          decided_at = sim.now();
        });
    client_node.client->start();
    sim.run_until(sim.now() + sim::sec(10));
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(net::NatType::Private);
  }
};

TEST(NatId, OpenInternetIsPublic) {
  Harness h;
  EXPECT_EQ(h.classify(net::NatConfig::open()), net::NatType::Public);
}

TEST(NatId, UpnpIsPublicWithoutNetworkTraffic) {
  Harness h;
  EXPECT_EQ(h.classify(net::NatConfig::upnp()), net::NatType::Public);
  // The UPnP shortcut must not have sent a single packet.
  EXPECT_EQ(h.network->meter().totals(1000).msgs_sent, 0u);
}

TEST(NatId, RestrictiveNatIsPrivateViaTimeout) {
  Harness h;
  EXPECT_EQ(h.classify(net::NatConfig::natted(
                net::FilteringPolicy::AddressAndPortDependent)),
            net::NatType::Private);
}

TEST(NatId, EndpointIndependentNatIsPrivateViaIpMismatch) {
  // The ForwardResp *does* arrive (EI filtering lets it through), but the
  // observed address is the NAT's, not the host's.
  Harness h;
  EXPECT_EQ(h.classify(net::NatConfig::natted(
                net::FilteringPolicy::EndpointIndependent)),
            net::NatType::Private);
  // Decided well before the timeout: the response path completed and the
  // verdict came from the IP mismatch, not the timer.
  EXPECT_LT(h.decided_at, sim::sec(2));
}

TEST(NatId, FirewalledIsPrivateDespiteMatchingIp) {
  Harness h;
  EXPECT_EQ(h.classify(net::NatConfig::firewalled()), net::NatType::Private);
}

TEST(NatId, AddressDependentNatIsPrivate) {
  Harness h;
  EXPECT_EQ(
      h.classify(net::NatConfig::natted(net::FilteringPolicy::AddressDependent)),
      net::NatType::Private);
}

TEST(NatId, NoPublicNodesYieldsPrivateConservatively) {
  Harness h(0);
  EXPECT_EQ(h.classify(net::NatConfig::open()), net::NatType::Private);
}

TEST(NatId, UsesThreeMessagesOnHappyPath) {
  Harness h(4);
  NatIdClient::Config cfg;
  cfg.parallel_probes = 1;  // single probe chain: exactly 3 messages
  h.classify(net::NatConfig::open(), cfg);
  // MatchingIpTest + ForwardTest + ForwardResp.
  EXPECT_EQ(h.network->meter().sum().msgs_sent, 3u);
}

TEST(NatId, ParallelProbesStillDecideOnce) {
  Harness h(5);
  NatIdClient::Config cfg;
  cfg.parallel_probes = 3;
  EXPECT_EQ(h.classify(net::NatConfig::open(), cfg), net::NatType::Public);
  // Extra ForwardResps after the first are ignored; the client reports
  // finished and retains its first result.
  EXPECT_TRUE(h.client_node.client->finished());
  EXPECT_EQ(h.client_node.client->result(), net::NatType::Public);
}

TEST(NatId, MessageRoundTrips) {
  MatchingIpTest t;
  t.probed = {1, 2, 3};
  wire::Writer w;
  t.encode(w);
  wire::Reader r(w.data());
  EXPECT_EQ(MatchingIpTest::decode(r).probed, t.probed);
  EXPECT_TRUE(r.exhausted());

  ForwardTest f;
  f.client = 9;
  f.observed_ip = net::IpAddr{0x52000009};
  wire::Writer w2;
  f.encode(w2);
  wire::Reader r2(w2.data());
  const auto fb = ForwardTest::decode(r2);
  EXPECT_EQ(fb.client, 9u);
  EXPECT_EQ(fb.observed_ip, f.observed_ip);

  ForwardResp resp;
  resp.observed_ip = net::IpAddr{0x0a000001};
  wire::Writer w3;
  resp.encode(w3);
  wire::Reader r3(w3.data());
  EXPECT_EQ(ForwardResp::decode(r3).observed_ip, resp.observed_ip);
}

// Integration: the full runtime identifies a mixed population correctly.
TEST(NatId, WorldIntegrationIdentifiesAllClassesCorrectly) {
  auto cfg = croupier::testing::fast_world_config(21);
  cfg.use_natid_protocol = true;
  core::CroupierConfig ccfg;
  ccfg.base.view_size = 5;
  ccfg.base.shuffle_size = 3;
  run::World world(cfg, run::make_factory<core::Croupier>(ccfg));

  // Operator-seeded publics join first; later joiners identify themselves
  // against them with the real protocol.
  std::vector<net::NodeId> opens, upnps, nats, firewalls;
  for (int i = 0; i < 4; ++i) {
    opens.push_back(world.spawn_seeded(net::NatConfig::open()));
  }
  world.simulator().run_until(sim::sec(5));
  for (int i = 0; i < 3; ++i) upnps.push_back(world.spawn(net::NatConfig::upnp()));
  for (int i = 0; i < 6; ++i) nats.push_back(world.spawn(net::NatConfig::natted()));
  for (int i = 0; i < 2; ++i) {
    firewalls.push_back(world.spawn(net::NatConfig::firewalled()));
  }
  world.simulator().run_until(sim::sec(30));

  for (net::NodeId id : opens) {
    EXPECT_EQ(world.identified_type_of(id), net::NatType::Public) << id;
  }
  for (net::NodeId id : upnps) {
    EXPECT_EQ(world.identified_type_of(id), net::NatType::Public) << id;
  }
  for (net::NodeId id : nats) {
    EXPECT_EQ(world.identified_type_of(id), net::NatType::Private) << id;
  }
  for (net::NodeId id : firewalls) {
    EXPECT_EQ(world.identified_type_of(id), net::NatType::Private) << id;
  }
}

// Under a Poisson join, as under an instant one, the initial publics are
// operator seeds. Without them no joiner finds a public responder to
// probe: every node settles Private, no shuffle is ever sent, and every
// estimate stays at its fallback.
TEST(NatId, PoissonJoinSeedsTheInitialPublics) {
  run::Experiment experiment(
      run::ExperimentSpec::parse(
          "protocol=croupier nodes=300 ratio=0.2 natid=1 duration=60"),
      /*seed=*/1);
  experiment.run();
  run::World& world = experiment.world();
  std::size_t publics = 0;
  for (const net::NodeId id : world.alive_ids()) {
    if (world.nat_config_of(id).nat_type() != net::NatType::Public) continue;
    EXPECT_EQ(world.identified_type_of(id), net::NatType::Public) << id;
    ++publics;
  }
  EXPECT_EQ(publics, 60u);

  // Steady state: the mean avg-error over the last 50 samples.
  const auto& series = experiment.estimation()->series();
  ASSERT_GE(series.size(), 50u);
  double sum = 0.0;
  for (std::size_t i = series.size() - 50; i < series.size(); ++i) {
    sum += series[i].sample.avg_error;
  }
  EXPECT_LT(sum / 50.0, 0.1);
}

}  // namespace
}  // namespace croupier::natid
