// NAT model tests: filtering policies, mapping timeouts, the reachability
// semantics every protocol in the repository is built around.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "net/nat.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace croupier::net {
namespace {

using sim::sec;

TEST(NatConfig, ClassificationMatchesClass) {
  EXPECT_EQ(NatConfig::open().nat_type(), NatType::Public);
  EXPECT_EQ(NatConfig::upnp().nat_type(), NatType::Public);
  EXPECT_EQ(NatConfig::natted().nat_type(), NatType::Private);
  EXPECT_EQ(NatConfig::firewalled().nat_type(), NatType::Private);
}

TEST(NatBox, BlocksUnsolicitedInbound) {
  NatBox nat(NatConfig::natted());
  EXPECT_FALSE(nat.allows_inbound(sec(1), 42));
}

TEST(NatBox, OutboundOpensMappingForThatPeer) {
  NatBox nat(NatConfig::natted());
  nat.on_outbound(sec(1), 42);
  EXPECT_TRUE(nat.allows_inbound(sec(2), 42));
  EXPECT_FALSE(nat.allows_inbound(sec(2), 43));  // different peer
}

TEST(NatBox, MappingExpiresAfterTimeout) {
  NatBox nat(NatConfig::natted(FilteringPolicy::AddressAndPortDependent,
                               sec(30)));
  nat.on_outbound(sec(0), 42);
  EXPECT_TRUE(nat.allows_inbound(sec(30), 42));   // boundary: still live
  EXPECT_FALSE(nat.allows_inbound(sec(31), 42));  // expired
}

TEST(NatBox, OutboundRefreshesMapping) {
  NatBox nat(NatConfig::natted(FilteringPolicy::AddressAndPortDependent,
                               sec(30)));
  nat.on_outbound(sec(0), 42);
  nat.on_outbound(sec(25), 42);
  EXPECT_TRUE(nat.allows_inbound(sec(50), 42));
  EXPECT_FALSE(nat.allows_inbound(sec(56), 42));
}

TEST(NatBox, EndpointIndependentFilteringAdmitsAnyoneOnceOpen) {
  NatBox nat(NatConfig::natted(FilteringPolicy::EndpointIndependent));
  EXPECT_FALSE(nat.allows_inbound(sec(1), 99));
  nat.on_outbound(sec(1), 42);  // any outbound opens the socket's mapping
  EXPECT_TRUE(nat.allows_inbound(sec(2), 99));
  EXPECT_TRUE(nat.allows_inbound(sec(2), 7));
}

TEST(NatBox, EndpointIndependentMappingAlsoExpires) {
  NatBox nat(NatConfig::natted(FilteringPolicy::EndpointIndependent, sec(30)));
  nat.on_outbound(sec(0), 42);
  EXPECT_TRUE(nat.allows_inbound(sec(20), 99));
  EXPECT_FALSE(nat.allows_inbound(sec(31), 99));
}

TEST(NatBox, AddressDependentEquivalentToAddressPortHere) {
  // One port per node in the model, so the two policies agree.
  NatBox ad(NatConfig::natted(FilteringPolicy::AddressDependent));
  NatBox apd(NatConfig::natted(FilteringPolicy::AddressAndPortDependent));
  ad.on_outbound(sec(1), 42);
  apd.on_outbound(sec(1), 42);
  EXPECT_EQ(ad.allows_inbound(sec(2), 42), apd.allows_inbound(sec(2), 42));
  EXPECT_EQ(ad.allows_inbound(sec(2), 43), apd.allows_inbound(sec(2), 43));
}

TEST(NatBox, PublicConfigAlwaysAdmits) {
  NatBox open(NatConfig::open());
  NatBox upnp(NatConfig::upnp());
  EXPECT_TRUE(open.allows_inbound(sec(1), 1));
  EXPECT_TRUE(upnp.allows_inbound(sec(1), 1));
}

TEST(NatBox, FirewallBehavesLikeRestrictiveNat) {
  NatBox fw(NatConfig::firewalled());
  EXPECT_FALSE(fw.allows_inbound(sec(1), 42));
  fw.on_outbound(sec(1), 42);
  EXPECT_TRUE(fw.allows_inbound(sec(2), 42));
  EXPECT_FALSE(fw.allows_inbound(sec(2), 43));
}

TEST(NatBox, LiveEntriesCountsAndGcs) {
  NatBox nat(NatConfig::natted(FilteringPolicy::AddressAndPortDependent,
                               sec(30)));
  nat.on_outbound(sec(0), 1);
  nat.on_outbound(sec(0), 2);
  nat.on_outbound(sec(20), 3);
  EXPECT_EQ(nat.live_entries(sec(25)), 3u);
  EXPECT_EQ(nat.live_entries(sec(40)), 1u);  // only peer 3 still live
}

TEST(NatBox, ManyMappingsIndependent) {
  NatBox nat(NatConfig::natted());
  for (NodeId peer = 0; peer < 100; ++peer) {
    nat.on_outbound(sec(peer), peer);
  }
  // Peer k's mapping was refreshed at t=k and lives 30 s.
  EXPECT_TRUE(nat.allows_inbound(sec(100), 80));
  EXPECT_FALSE(nat.allows_inbound(sec(100), 60));
}

// Property sweep: for every filtering policy, an inbound from a peer is
// admitted iff (policy == EI and any mapping live) or (that peer's mapping
// is live).
class NatPolicySweep : public ::testing::TestWithParam<FilteringPolicy> {};

TEST_P(NatPolicySweep, FilterInvariant) {
  const FilteringPolicy policy = GetParam();
  NatBox nat(NatConfig::natted(policy, sec(10)));
  nat.on_outbound(sec(0), 1);
  nat.on_outbound(sec(5), 2);

  for (sim::SimTime t : {sec(6), sec(9), sec(11), sec(16)}) {
    const bool peer1_live = t <= sec(0) + sec(10);
    const bool peer2_live = t <= sec(5) + sec(10);
    const bool any_live = peer1_live || peer2_live;
    const bool ei = policy == FilteringPolicy::EndpointIndependent;
    EXPECT_EQ(nat.allows_inbound(t, 1), ei ? any_live : peer1_live)
        << "t=" << t;
    EXPECT_EQ(nat.allows_inbound(t, 2), ei ? any_live : peer2_live)
        << "t=" << t;
    EXPECT_EQ(nat.allows_inbound(t, 3), ei && any_live) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, NatPolicySweep,
    ::testing::Values(FilteringPolicy::EndpointIndependent,
                      FilteringPolicy::AddressDependent,
                      FilteringPolicy::AddressAndPortDependent));

TEST(NatBox, NilNodeCannotBeMapped) {
  NatBox nat(NatConfig::natted());
  EXPECT_FALSE(nat.allows_inbound(sec(1), kNilNode));
  nat.on_outbound(sec(1), 42);
  EXPECT_FALSE(nat.allows_inbound(sec(1), kNilNode));
  EXPECT_DEATH(nat.on_outbound(sec(2), kNilNode), "kNilNode");
}

// The box as it was before the flat table: a map from peer to last
// outbound time, swept of expired mappings once per 256 outbound packets.
// std::map stands in for the hash map so the scans need no lint waiver;
// no result below depends on the order in which a scan visits entries.
class RefNatBox {
 public:
  explicit RefNatBox(NatConfig cfg) : cfg_(cfg) {}

  void on_outbound(sim::SimTime now, NodeId dst) {
    last_outbound_[dst] = now;
    last_any_outbound_ = now;
    any_outbound_ever_ = true;
    if (++ops_since_gc_ >= 256) collect(now);
  }

  [[nodiscard]] bool allows_inbound(sim::SimTime now, NodeId src) const {
    if (cfg_.behaves_public()) return true;
    if (cfg_.filtering == FilteringPolicy::EndpointIndependent) {
      return any_outbound_ever_ && entry_live(now, last_any_outbound_);
    }
    const auto it = last_outbound_.find(src);
    return it != last_outbound_.end() && entry_live(now, it->second);
  }

  [[nodiscard]] std::size_t live_entries(sim::SimTime now) const {
    std::size_t n = 0;
    for (const auto& [id, t] : last_outbound_) {
      if (entry_live(now, t)) ++n;
    }
    return n;
  }

 private:
  [[nodiscard]] bool entry_live(sim::SimTime now, sim::SimTime last) const {
    return now <= last + cfg_.mapping_timeout;
  }

  void collect(sim::SimTime now) {
    ops_since_gc_ = 0;
    std::erase_if(last_outbound_,
                  [&](const auto& kv) { return !entry_live(now, kv.second); });
  }

  NatConfig cfg_;
  std::map<NodeId, sim::SimTime> last_outbound_;
  sim::SimTime last_any_outbound_ = 0;
  bool any_outbound_ever_ = false;
  std::uint32_t ops_since_gc_ = 0;
};

// Random outbound packets against the reference, in time units of 1 µs
// with a 40 µs timeout, so checks land on both sides of every mapping's
// expiry. Bursts of up to 200 fresh destinations force several growth
// sweeps; the id pool includes 0 and 0xfffffffe.
void nat_twin_run(FilteringPolicy policy, std::uint64_t seed) {
  const NatConfig cfg = NatConfig::natted(policy, sim::usec(40));
  NatBox box(cfg);
  RefNatBox ref(cfg);
  std::vector<NodeId> pool = {0, 0xfffffffe, 0xfffffffd, 0x80000000};
  for (NodeId id = 1; id <= 300; ++id) pool.push_back(id * 37);
  sim::RngStream rng(seed);
  sim::SimTime now = 0;
  std::size_t most_live = 0;
  for (int step = 0; step < 1500; ++step) {
    now += rng.uniform(7);
    const auto sends = rng.chance(0.03) ? rng.uniform(200) : rng.uniform(4);
    for (std::uint64_t i = 0; i < sends; ++i) {
      const NodeId dst = pool[rng.uniform(pool.size())];
      box.on_outbound(now, dst);
      ref.on_outbound(now, dst);
    }
    for (const sim::SimTime t : {now, now + sim::usec(40)}) {
      ASSERT_EQ(box.live_entries(t), ref.live_entries(t))
          << "step " << step << ", t " << t;
      for (const NodeId id : pool) {
        ASSERT_EQ(box.allows_inbound(t, id), ref.allows_inbound(t, id))
            << "step " << step << ", t " << t << ", id " << id;
      }
    }
    most_live = std::max(most_live, box.live_entries(now));
  }
  // Over 96 live mappings need 256 slots; a rebuild at most doubles the
  // table, so it grew from 8 slots through at least five sweeps.
  EXPECT_GT(most_live, 96u);
}

TEST_P(NatPolicySweep, MatchesMapBasedBox) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    nat_twin_run(GetParam(), seed);
  }
}

}  // namespace
}  // namespace croupier::net
