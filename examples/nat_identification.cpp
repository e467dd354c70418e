// NAT-type identification demo (paper §V, Algorithm 1).
//
// Boots a small system where every joining node first runs the
// distributed NAT-ID protocol against already-present public nodes, then
// starts gossiping with the classification it determined for itself.
// Prints the verdict for one node of every connectivity class, plus the
// message cost.
#include <cstdio>

#include "runtime/spec.hpp"
#include "runtime/world.hpp"

int main() {
  using namespace croupier;

  // natid + instant joins: the initial publics are operator-seeded
  // responders (ground-truth classified), exactly what a fresh deployment
  // needs before the identification protocol has anyone to test against.
  run::Experiment experiment({.protocol = "croupier", .nodes = 4, .ratio = 1.0,
                              .join = run::ExperimentSpec::JoinKind::Instant,
                              .natid = true, .duration_s = 60,
                              .record = run::ExperimentSpec::RecordKind::None},
                             /*seed=*/7);
  run::World& world = experiment.world();
  world.simulator().run_until(sim::sec(2));

  struct Case {
    const char* description;
    net::NatConfig config;
  };
  const Case cases[] = {
      {"open Internet host", net::NatConfig::open()},
      {"NAT with UPnP IGD port mapping", net::NatConfig::upnp()},
      {"NAT, endpoint-independent filtering",
       net::NatConfig::natted(net::FilteringPolicy::EndpointIndependent)},
      {"NAT, address-dependent filtering",
       net::NatConfig::natted(net::FilteringPolicy::AddressDependent)},
      {"NAT, address+port-dependent filtering",
       net::NatConfig::natted(net::FilteringPolicy::AddressAndPortDependent)},
      {"stateful firewall (no translation)", net::NatConfig::firewalled()},
  };

  std::printf("%-42s %-10s %-10s %s\n", "ground truth", "identified",
              "correct?", "msgs sent by client");
  for (const auto& c : cases) {
    const auto before_drops = world.network().drops().delivered;
    (void)before_drops;
    const net::NodeId id = world.spawn(c.config);
    const auto sent_before = world.network().meter().totals(id).msgs_sent;
    world.simulator().run_until(world.simulator().now() + sim::sec(5));
    const auto identified = world.identified_type_of(id);
    const auto truth = c.config.nat_type();
    const auto sent =
        world.network().meter().totals(id).msgs_sent - sent_before;
    std::printf("%-42s %-10s %-10s %llu (incl. first gossip)\n",
                c.description, net::to_cstring(identified),
                identified == truth ? "yes" : "NO",
                static_cast<unsigned long long>(sent));
  }

  std::printf(
      "\nThe EI-filtering NAT case is the subtle one: the ForwardResp DOES\n"
      "arrive (any open mapping admits it), but the observed address is\n"
      "the gateway's, so the IP comparison still classifies it private.\n");
  return 0;
}
