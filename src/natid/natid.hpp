// Minimal distributed NAT-type identification (paper §V, Algorithm 1).
//
// Classifies the running node as public or private using three messages
// and no STUN infrastructure:
//
//   client ──MatchingIpTest──▶ first public node
//   first  ──ForwardTest────▶ second public node   (NOT one the client
//                                                    probed, so no stale
//                                                    NAT mapping helps)
//   second ──ForwardResp───▶ client's observed public address
//
// Outcomes:
//  - UPnP IGD available locally        -> public (no network test needed);
//  - ForwardResp arrives, IPs match    -> public (open Internet);
//  - ForwardResp arrives, IPs differ   -> private (the NAT has endpoint-
//    independent filtering, so the unsolicited packet got through, but
//    the node is translated);
//  - timeout                           -> private (restrictive filtering
//    or firewall dropped the unsolicited ForwardResp).
//
// The client probes several public nodes in parallel; the first
// ForwardResp decides. Public nodes answer statelessly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/bootstrap.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace croupier::natid {

constexpr std::uint8_t kMatchingIpTest = 0x50;
constexpr std::uint8_t kForwardTest = 0x51;
constexpr std::uint8_t kForwardResp = 0x52;

/// Is a wire byte one of the NAT-ID protocol's tags? (Used by runtime
/// dispatchers that multiplex NAT-ID and PSS traffic on one handler.)
constexpr bool is_natid_message(std::uint8_t tag) {
  return tag >= kMatchingIpTest && tag <= kForwardResp;
}

struct MatchingIpTest final
    : net::WireMessage<MatchingIpTest, kMatchingIpTest> {
  /// The public nodes the client is probing in parallel; the responder
  /// must pick a forwarder outside this set (paper: the client's NAT may
  /// hold mappings toward probed nodes, which would fake a pass).
  std::vector<net::NodeId> probed;

  [[nodiscard]] const char* name() const override {
    return "natid.matching_ip_test";
  }
  template <typename IO>
  friend void layout(IO& io, wire::Field<IO, MatchingIpTest> m) {
    wire::list(io, m.probed, wire::endpoint<IO>);
  }
};

struct ForwardTest final : net::WireMessage<ForwardTest, kForwardTest> {
  net::NodeId client = net::kNilNode;
  net::IpAddr observed_ip;  // source address the first node saw

  [[nodiscard]] const char* name() const override {
    return "natid.forward_test";
  }
  template <typename IO>
  friend void layout(IO& io, wire::Field<IO, ForwardTest> m) {
    wire::endpoint(io, m.client);
    layout(io, m.observed_ip.v);
  }
};

struct ForwardResp final : net::WireMessage<ForwardResp, kForwardResp> {
  net::IpAddr observed_ip;

  [[nodiscard]] const char* name() const override {
    return "natid.forward_resp";
  }
  template <typename IO>
  friend void layout(IO& io, wire::Field<IO, ForwardResp> m) {
    layout(io, m.observed_ip.v);
  }
};

/// Responder role: runs on every public node; stateless.
class NatIdResponder {
 public:
  NatIdResponder(net::NodeId self, net::Network& network,
                 net::BootstrapServer& bootstrap, sim::RngStream rng)
      : self_(self), network_(network), bootstrap_(bootstrap), rng_(rng) {}

  /// Handles MatchingIpTest and ForwardTest. Returns true if consumed.
  bool on_message(net::NodeId from, const net::Message& msg);

 private:
  net::NodeId self_;
  net::Network& network_;
  net::BootstrapServer& bootstrap_;
  sim::RngStream rng_;
};

/// Client role: one classification run.
class NatIdClient {
 public:
  struct Config {
    std::size_t parallel_probes = 3;
    sim::Duration timeout = sim::sec(2);
    bool upnp_available = false;  // from local IGD discovery
  };
  using DoneFn = std::function<void(net::NatType)>;

  NatIdClient(net::NodeId self, net::Network& network,
              net::BootstrapServer& bootstrap, sim::RngStream rng,
              Config cfg, DoneFn done);
  ~NatIdClient();

  NatIdClient(const NatIdClient&) = delete;
  NatIdClient& operator=(const NatIdClient&) = delete;

  /// Begins the run. The callback fires exactly once, possibly
  /// synchronously (UPnP and no-public-nodes cases).
  void start();

  /// Handles ForwardResp. Returns true if consumed.
  bool on_message(net::NodeId from, const net::Message& msg);

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] std::optional<net::NatType> result() const { return result_; }

 private:
  void finish(net::NatType type);

  net::NodeId self_;
  net::Network& network_;
  net::BootstrapServer& bootstrap_;
  sim::RngStream rng_;
  Config cfg_;
  DoneFn done_;

  bool started_ = false;
  bool finished_ = false;
  std::optional<net::NatType> result_;
  // Guards the timeout closure against the client being destroyed first.
  std::shared_ptr<bool> alive_flag_;
};

}  // namespace croupier::natid
