// ProtocolRegistry: the string-keyed protocol construction surface.
// Covers name lookup and error reporting, option parsing per protocol
// (typed config builders), spec-string syntax, and end-to-end factory
// construction through a World.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "runtime/registry.hpp"
#include "runtime/world.hpp"

namespace croupier::run {
namespace {

const ProtocolRegistry& reg() { return ProtocolRegistry::instance(); }

TEST(ProtocolRegistry, KnowsAllFiveProtocols) {
  const auto names = reg().names();
  EXPECT_EQ(names, (std::vector<std::string>{"arrg", "croupier", "cyclon",
                                             "gozar", "nylon"}));
  for (const auto& name : names) EXPECT_TRUE(reg().contains(name));
  EXPECT_FALSE(reg().contains("chord"));
}

TEST(ProtocolRegistry, UnknownProtocolThrowsWithKnownNames) {
  try {
    (void)reg().make("chord");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown protocol \"chord\""), std::string::npos)
        << msg;
    // The error must teach the fix: every registered name is listed.
    EXPECT_NE(msg.find("croupier"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cyclon"), std::string::npos) << msg;
  }
}

TEST(ProtocolRegistry, UnknownOptionKeyThrows) {
  // The error names the protocol and the typo, and teaches the fix: it
  // lists exactly the keys that protocol accepts.
  const std::vector<std::string> shared{"view", "shuffle", "fanout", "merge"};
  const std::map<std::string, std::vector<std::string>> own{
      {"croupier", {"alpha", "gamma", "share_limit", "min_slots", "sizing"}},
      {"cyclon", {}},
      {"gozar", {"parents", "keepalive", "parent_timeout", "redundancy"}},
      {"nylon",
       {"rvp_links", "keepalive", "rvp_ttl", "punch_hops", "routing_table",
        "routing_ttl"}},
      {"arrg", {"open_list"}}};
  for (const auto& [name, keys] : own) {
    try {
      (void)reg().make(name, {{"aplha", "25"}});  // typo
      ADD_FAILURE() << name << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + name + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("'aplha'"), std::string::npos) << msg;
      const std::string marker = "accepted options: ";
      const auto at = msg.find(marker);
      ASSERT_NE(at, std::string::npos) << msg;
      std::set<std::string> listed;
      std::istringstream list(msg.substr(at + marker.size()));
      for (std::string key; std::getline(list >> std::ws, key, ',');) {
        listed.insert(key);
      }
      std::set<std::string> expected(shared.begin(), shared.end());
      expected.insert(keys.begin(), keys.end());
      EXPECT_EQ(listed, expected) << msg;
    }
  }
}

TEST(ProtocolRegistry, MalformedOptionValueThrows) {
  EXPECT_THROW((void)reg().make("croupier", {{"alpha", "many"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg().make("croupier", {{"alpha", "-3"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg().make("croupier", {{"alpha", ""}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg().make("croupier", {{"sizing", "diagonal"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg().make("cyclon", {{"view", "0"}}),
               std::invalid_argument);
}

TEST(ProtocolRegistry, CroupierOptionsApplyOverPaperDefaults) {
  const auto dflt = make_croupier_config({});
  EXPECT_EQ(dflt.estimator.local_history, 25u);     // paper alpha
  EXPECT_EQ(dflt.estimator.neighbour_history, 50u); // paper gamma
  EXPECT_EQ(dflt.estimator.share_limit, 10u);
  EXPECT_EQ(dflt.base.view_size, 10u);
  EXPECT_EQ(dflt.base.shuffle_size, 5u);
  EXPECT_EQ(dflt.sizing, core::ViewSizing::FixedPerView);

  const auto cfg = make_croupier_config({{"alpha", "100"},
                                         {"gamma", "250"},
                                         {"share_limit", "5"},
                                         {"sizing", "proportional"},
                                         {"view", "20"},
                                         {"merge", "healer"}});
  EXPECT_EQ(cfg.estimator.local_history, 100u);
  EXPECT_EQ(cfg.estimator.neighbour_history, 250u);
  EXPECT_EQ(cfg.estimator.share_limit, 5u);
  EXPECT_EQ(cfg.sizing, core::ViewSizing::RatioProportional);
  EXPECT_EQ(cfg.base.view_size, 20u);
  EXPECT_EQ(cfg.base.merge, pss::MergePolicy::Healer);
}

TEST(ProtocolRegistry, BaselineOptionsApply) {
  const auto gozar = make_gozar_config({{"redundancy", "3"},
                                        {"parents", "5"},
                                        {"keepalive", "7"}});
  EXPECT_EQ(gozar.relay_redundancy, 3u);
  EXPECT_EQ(gozar.num_parents, 5u);
  EXPECT_EQ(gozar.keepalive_rounds, 7u);

  const auto nylon = make_nylon_config({{"punch_hops", "8"},
                                        {"rvp_links", "40"}});
  EXPECT_EQ(nylon.max_punch_hops, 8u);
  EXPECT_EQ(nylon.max_rvp_links, 40u);
  EXPECT_THROW((void)make_nylon_config({{"punch_hops", "300"}}),
               std::invalid_argument);  // > uint8

  const auto arrg = make_arrg_config({{"open_list", "11"}});
  EXPECT_EQ(arrg.open_list_size, 11u);

  const auto cyclon = make_cyclon_config({{"shuffle", "4"}});
  EXPECT_EQ(cyclon.shuffle_size, 4u);
}

// Each spec passes the registry's syntax checks but breaks a bound a
// protocol relies on. Most used to abort a trial (or divide by zero);
// the two zero-sized Nylon tables kept one entry each all the same; and
// the last five break a one-byte field of the wire: the estimator's age
// (and its 8-bit age stamps), an estimate list's count, a shuffle's
// descriptor count even where the view holds more, and a Gozar
// descriptor's parent count. The error names the protocol and the
// option.
struct RejectedSpec {
  const char* spec;
  const char* option;
  friend void PrintTo(const RejectedSpec& c, std::ostream* os) {
    *os << c.spec;
  }
};

class ProtocolRegistryRejects
    : public ::testing::TestWithParam<RejectedSpec> {};

TEST_P(ProtocolRegistryRejects, OutOfRangeOrInconsistentOption) {
  const RejectedSpec c = GetParam();
  const std::string name = ProtocolRegistry::parse_spec(c.spec).first;
  try {
    (void)reg().make_from_spec(c.spec);
    FAIL() << c.spec << ": expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("protocol '" + name + "': ", 0), 0u) << msg;
    EXPECT_NE(msg.find(c.option), std::string::npos) << msg;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CrashingSpecs, ProtocolRegistryRejects,
    ::testing::Values(
        RejectedSpec{"croupier:alpha=0", "alpha"},
        RejectedSpec{"croupier:gamma=0", "gamma"},
        RejectedSpec{"croupier:share_limit=0", "share_limit"},
        RejectedSpec{"croupier:shuffle=20", "shuffle"},
        RejectedSpec{"cyclon:shuffle=20", "shuffle"},
        RejectedSpec{"gozar:shuffle=20", "shuffle"},
        RejectedSpec{"nylon:shuffle=20", "shuffle"},
        RejectedSpec{"croupier:sizing=proportional,min_slots=6",
                     "min_slots"},
        RejectedSpec{"croupier:sizing=proportional,min_slots=0",
                     "min_slots"},
        RejectedSpec{"croupier:view=100000", "view"},
        RejectedSpec{"gozar:parents=0", "parents"},
        RejectedSpec{"gozar:keepalive=0", "keepalive"},
        RejectedSpec{"nylon:keepalive=0", "keepalive"},
        RejectedSpec{"nylon:keepalive=5,rvp_ttl=1", "rvp_ttl"},
        RejectedSpec{"nylon:rvp_links=0", "rvp_links"},
        RejectedSpec{"nylon:routing_table=0", "routing_table"},
        RejectedSpec{"arrg:open_list=0", "open_list"},
        RejectedSpec{"croupier:gamma=255", "gamma"},
        RejectedSpec{"croupier:share_limit=256", "share_limit"},
        RejectedSpec{"cyclon:view=300,shuffle=256", "shuffle"},
        RejectedSpec{"arrg:shuffle=256", "shuffle"},
        RejectedSpec{"gozar:parents=256", "parents"}),
    [](const ::testing::TestParamInfo<RejectedSpec>& info) {
      std::string id;
      for (const char* c = info.param.spec; *c != '\0'; ++c) {
        id += std::isalnum(static_cast<unsigned char>(*c)) ? *c : '_';
      }
      return id;
    });

// The largest accepted values still build worlds whose trials run.
TEST(ProtocolRegistry, BoundaryValuesAreAcceptedAndRun) {
  for (const char* spec :
       {"croupier:gamma=254", "croupier:share_limit=255",
        "croupier:shuffle=10,view=10",
        "croupier:sizing=proportional,min_slots=5", "croupier:view=32767",
        "arrg:shuffle=20", "arrg:shuffle=255"}) {
    World::Config cfg;
    cfg.seed = 3;
    cfg.latency = World::LatencyKind::Constant;
    cfg.constant_latency = sim::msec(20);
    World world(cfg, reg().make_from_spec(spec));
    for (int i = 0; i < 8; ++i) world.spawn(net::NatConfig::open());
    world.simulator().run_until(sim::sec(10));
    EXPECT_EQ(world.alive_count(), 8u) << spec;
  }
}

TEST(ProtocolRegistry, ParseSpecSplitsNameAndOptions) {
  const auto [name, opts] =
      ProtocolRegistry::parse_spec("croupier:alpha=25,gamma=50");
  EXPECT_EQ(name, "croupier");
  ASSERT_EQ(opts.size(), 2u);
  EXPECT_EQ(opts.at("alpha"), "25");
  EXPECT_EQ(opts.at("gamma"), "50");

  const auto [bare, none] = ProtocolRegistry::parse_spec("nylon");
  EXPECT_EQ(bare, "nylon");
  EXPECT_TRUE(none.empty());
}

TEST(ProtocolRegistry, ParseSpecRejectsBadSyntax) {
  EXPECT_THROW((void)ProtocolRegistry::parse_spec(""),
               std::invalid_argument);
  EXPECT_THROW((void)ProtocolRegistry::parse_spec(":alpha=1"),
               std::invalid_argument);
  EXPECT_THROW((void)ProtocolRegistry::parse_spec("croupier:"),
               std::invalid_argument);
  EXPECT_THROW((void)ProtocolRegistry::parse_spec("croupier:alpha"),
               std::invalid_argument);
  EXPECT_THROW((void)ProtocolRegistry::parse_spec("croupier:alpha=1,"),
               std::invalid_argument);
  EXPECT_THROW((void)ProtocolRegistry::parse_spec("croupier:=1"),
               std::invalid_argument);
}

// End to end: every registry name yields a factory that builds a working
// sampler inside a World.
TEST(ProtocolRegistry, FactoriesBuildWorkingWorlds) {
  for (const auto& name : reg().names()) {
    World::Config cfg;
    cfg.seed = 9;
    cfg.latency = World::LatencyKind::Constant;
    cfg.constant_latency = sim::msec(20);
    World world(cfg, reg().make_from_spec(name));
    for (int i = 0; i < 8; ++i) world.spawn(net::NatConfig::open());
    world.simulator().run_until(sim::sec(10));
    EXPECT_EQ(world.alive_count(), 8u) << name;
    const auto* sampler = world.sampler(world.alive_ids().front());
    ASSERT_NE(sampler, nullptr) << name;
    EXPECT_FALSE(sampler->out_neighbors().empty()) << name;
  }
}

}  // namespace
}  // namespace croupier::run
