// Ground-truth NAT/firewall model (the paper's substitute for real NAT
// gateways).
//
// Each node has a ConnectivityClass. Open-Internet and UPnP-IGD nodes
// behave as *public*: anybody may send to them. Natted and Firewalled
// nodes behave as *private*: an inbound packet is delivered only if the
// node's gateway currently holds a mapping/filter entry admitting the
// sender. Entries are created and refreshed by the node's own outbound
// packets and expire after `mapping_timeout` (default 30 s, comfortably
// above the 5-minute conservative bound the NAT-ID protocol assumes is
// *not* exceeded between unrelated hosts).
//
// Filtering policies follow NATCracker [20] terminology:
//  - EndpointIndependent: once any mapping is live, any host may send in;
//  - AddressDependent / AddressAndPortDependent: only hosts this node
//    recently sent to may send in. (The simulation gives each node one
//    port, so the two address-dependent flavours coincide; both are kept
//    so configurations read like the taxonomy.)
#pragma once

#include <cstdint>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace croupier::net {

enum class ConnectivityClass : std::uint8_t {
  OpenInternet = 0,  // public IP, no gateway
  UpnpIgd = 1,       // behind a NAT whose port-mapping makes it public
  Natted = 2,        // behind a NAT with the configured filtering policy
  Firewalled = 3,    // public IP but stateful firewall (drop unsolicited)
};

enum class FilteringPolicy : std::uint8_t {
  EndpointIndependent = 0,
  AddressDependent = 1,
  AddressAndPortDependent = 2,
};

/// Ground-truth connectivity configuration of one node.
struct NatConfig {
  ConnectivityClass cls = ConnectivityClass::OpenInternet;
  FilteringPolicy filtering = FilteringPolicy::AddressAndPortDependent;
  sim::Duration mapping_timeout = sim::sec(30);

  static NatConfig open() { return {}; }
  static NatConfig upnp() { return {ConnectivityClass::UpnpIgd, {}, sim::sec(30)}; }
  static NatConfig natted(
      FilteringPolicy f = FilteringPolicy::AddressAndPortDependent,
      sim::Duration timeout = sim::sec(30)) {
    return {ConnectivityClass::Natted, f, timeout};
  }
  static NatConfig firewalled() {
    return {ConnectivityClass::Firewalled,
            FilteringPolicy::AddressAndPortDependent, sim::sec(30)};
  }

  /// True when the rest of the network can reach this node unsolicited.
  [[nodiscard]] bool behaves_public() const {
    return cls == ConnectivityClass::OpenInternet ||
           cls == ConnectivityClass::UpnpIgd;
  }

  /// The binary classification the PSS protocols use.
  [[nodiscard]] NatType nat_type() const {
    return behaves_public() ? NatType::Public : NatType::Private;
  }
};

/// The stateful gateway in front of one private node: a table of
/// (remote node -> last outbound time) driving the filtering decision.
///
/// The table is open-addressed with linear probing over a power-of-two
/// slot array; an empty slot holds kNilNode. Nothing is ever erased in
/// place: expired mappings stay (invisible, since every read checks
/// entry_live) until an insert would push the load above 3/4, and then
/// the table is rebuilt around the live mappings alone.
class NatBox {
 public:
  explicit NatBox(NatConfig cfg) : cfg_(cfg) {}

  /// Records that the owning node sent a packet to `dst` at time `now`,
  /// creating or refreshing the corresponding mapping/filter entry.
  /// `dst` must not be kNilNode (the empty-slot marker).
  void on_outbound(sim::SimTime now, NodeId dst);

  /// Decides whether an inbound packet from `src` arriving at `now` passes
  /// the gateway.
  [[nodiscard]] bool allows_inbound(sim::SimTime now, NodeId src) const;

  /// Number of currently live per-destination entries (tests/diagnostics).
  [[nodiscard]] std::size_t live_entries(sim::SimTime now) const;

  [[nodiscard]] const NatConfig& config() const { return cfg_; }

 private:
  struct Mapping {
    NodeId peer = kNilNode;
    sim::SimTime last = 0;
  };

  [[nodiscard]] bool entry_live(sim::SimTime now, sim::SimTime last) const {
    return now <= last + cfg_.mapping_timeout;
  }
  /// The slot holding `peer`, or the empty slot that ends its probe run.
  /// Requires a non-empty table.
  [[nodiscard]] std::size_t probe(NodeId peer) const;
  /// Rebuilds the table around the mappings live at `now`, with room for
  /// one more at a load of at most 1/2.
  void rebuild(sim::SimTime now);

  NatConfig cfg_;
  std::vector<Mapping> slots_;  // empty until the first outbound packet
  std::size_t used_ = 0;        // occupied slots, live or expired
  sim::SimTime last_any_outbound_ = 0;
  bool any_outbound_ever_ = false;
};

}  // namespace croupier::net
