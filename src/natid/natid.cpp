#include "natid/natid.hpp"

#include <algorithm>
#include <memory>

#include "common/assert.hpp"

namespace croupier::natid {

bool NatIdResponder::on_message(net::NodeId from, const net::Message& msg) {
  switch (msg.type()) {
    case kMatchingIpTest: {
      const auto& test = static_cast<const MatchingIpTest&>(msg);
      // Pick a forwarder that is public, is not us, and is not any node
      // the client is probing (its NAT may hold mappings toward those). A
      // deployed node would use recent public neighbours from its PSS; the
      // oracle sampling stands in for that here.
      const auto candidates = bootstrap_.sample_public(
          test.probed.size() + 2, self_, rng_);
      for (net::NodeId candidate : candidates) {
        const bool probed =
            std::find(test.probed.begin(), test.probed.end(), candidate) !=
            test.probed.end();
        if (probed || candidate == from) continue;
        // The client left while its test was in flight: any answer could
        // only reach a dead receiver.
        if (!network_.attached(from)) return true;
        auto fwd = std::make_shared<ForwardTest>();
        fwd->client = from;
        // In a real deployment this is the UDP source address; the
        // network model exposes exactly that.
        fwd->observed_ip = network_.public_ip(from);
        network_.send(self_, candidate, std::move(fwd));
        return true;
      }
      return true;  // no forwarder available; client will time out
    }
    case kForwardTest: {
      const auto& test = static_cast<const ForwardTest&>(msg);
      auto resp = std::make_shared<ForwardResp>();
      resp->observed_ip = test.observed_ip;
      network_.send(self_, test.client, std::move(resp));
      return true;
    }
    default:
      return false;
  }
}

NatIdClient::NatIdClient(net::NodeId self, net::Network& network,
                         net::BootstrapServer& bootstrap, sim::RngStream rng,
                         Config cfg, DoneFn done)
    : self_(self),
      network_(network),
      bootstrap_(bootstrap),
      rng_(rng),
      cfg_(cfg),
      done_(std::move(done)),
      alive_flag_(std::make_shared<bool>(true)) {
  CROUPIER_ASSERT(done_ != nullptr);
  CROUPIER_ASSERT(cfg_.parallel_probes > 0);
}

NatIdClient::~NatIdClient() { *alive_flag_ = false; }

void NatIdClient::start() {
  CROUPIER_ASSERT_MSG(!started_, "NatIdClient is single-shot");
  started_ = true;

  // Paper Algorithm 1, line 4: UPnP IGD short-circuits the network test.
  if (cfg_.upnp_available) {
    finish(net::NatType::Public);
    return;
  }

  const auto probed =
      bootstrap_.sample_public(cfg_.parallel_probes, self_, rng_);
  if (probed.empty()) {
    // Nobody to test against (first node in the system): a node that the
    // bootstrap server can hand out must be publicly reachable, and the
    // deployment would only seed public nodes; classify optimistically as
    // private is useless — but we cannot verify reachability, so report
    // private and let the operator seed properly. Conservative choice.
    finish(net::NatType::Private);
    return;
  }

  auto test = std::make_shared<MatchingIpTest>();
  test->probed = probed;
  for (net::NodeId target : probed) {
    network_.send(self_, target, test);
  }

  // Never retracted: once a ForwardResp decides, the timeout fires as a
  // no-op.
  network_.simulator().schedule_after(
      cfg_.timeout, [this, alive = alive_flag_]() {
        if (!*alive || finished_) return;
        finish(net::NatType::Private);
      });
}

bool NatIdClient::on_message(net::NodeId /*from*/, const net::Message& msg) {
  if (msg.type() != kForwardResp) return false;
  if (finished_) return true;
  const auto& resp = static_cast<const ForwardResp&>(msg);
  const net::IpAddr local = network_.local_ip(self_);
  finish(local == resp.observed_ip ? net::NatType::Public
                                   : net::NatType::Private);
  return true;
}

void NatIdClient::finish(net::NatType type) {
  CROUPIER_ASSERT(!finished_);
  finished_ = true;
  result_ = type;
  done_(type);
}

}  // namespace croupier::natid
