#include "net/network.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "sim/conflict.hpp"
#include "wire/wire.hpp"

namespace croupier::net {

Network::Network(sim::Simulator& simulator,
                 std::unique_ptr<LatencyModel> latency, sim::RngStream rng,
                 const LossConfig& loss)
    : simulator_(simulator),
      latency_(std::move(latency)),
      rng_(rng),
      loss_(loss),
      lossless_(loss.lossless()),
      loss_class_sensitive_(!loss.flat()) {
  CROUPIER_ASSERT(latency_ != nullptr);
  for (const auto& row : loss_.rate) {
    for (const double p : row) {
      CROUPIER_ASSERT_MSG(p >= 0.0 && p < 1.0, "loss rate must be in [0, 1)");
    }
  }
}

void Network::set_packet_config(const PacketConfig& cfg) {
  CROUPIER_ASSERT_MSG(next_msg_id_ == 1 && meter_.empty(),
                      "packet config must be set before traffic flows");
  packet_ = cfg;
  fragmenter_ = Fragmenter(cfg);
}

void Network::attach(NodeId id, const NatConfig& cfg,
                     MessageHandler& handler) {
  sim::conflict::record_shared_write("Network: attach");
  CROUPIER_ASSERT_MSG(!nodes_.contains(id), "NodeId already attached");
  NodeState state;
  state.cfg = cfg;
  state.handler = &handler;
  if (!cfg.behaves_public()) state.nat.emplace(cfg);
  nodes_.emplace(id, std::move(state));
}

void Network::detach(NodeId id) {
  sim::conflict::record_shared_write("Network: detach");
  const auto erased = nodes_.erase(id);
  CROUPIER_ASSERT_MSG(erased == 1, "detach of unattached node");
  buckets_.erase(id);
}

void Network::reclassify(NodeId id, const NatConfig& cfg) {
  sim::conflict::record_shared_write("Network: reclassify");
  const auto it = nodes_.find(id);
  CROUPIER_ASSERT_MSG(it != nodes_.end(), "reclassify of unattached node");
  it->second.cfg = cfg;
  it->second.nat.reset();
  if (!cfg.behaves_public()) it->second.nat.emplace(cfg);
  it->second.assemblies.clear();
  buckets_.erase(id);
}

NatType Network::type_of(NodeId id) const {
  const auto it = nodes_.find(id);
  CROUPIER_ASSERT(it != nodes_.end());
  return it->second.cfg.nat_type();
}

const NatBox* Network::nat_of(NodeId id) const {
  const auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.nat.has_value()) return nullptr;
  return &*it->second.nat;
}

IpAddr Network::local_ip(NodeId id) const {
  const auto it = nodes_.find(id);
  CROUPIER_ASSERT(it != nodes_.end());
  switch (it->second.cfg.cls) {
    case ConnectivityClass::Natted:
    case ConnectivityClass::UpnpIgd:
      // RFC1918-style address behind the gateway.
      return IpAddr{0x0a000000u | (id & 0x00ffffffu)};
    case ConnectivityClass::OpenInternet:
    case ConnectivityClass::Firewalled:
      return public_ip(id);
  }
  return {};
}

IpAddr Network::public_ip(NodeId id) const {
  const auto it = nodes_.find(id);
  CROUPIER_ASSERT(it != nodes_.end());
  // Deterministic distinct "public" address per node (each private node is
  // modelled behind its own gateway).
  return IpAddr{0x52000000u | (id & 0x00ffffffu)};
}

namespace {

/// First reassembly entry whose msg_id is not below `msg_id`.
template <typename Assemblies>
auto find_slot(Assemblies& assemblies, std::uint64_t msg_id) {
  return std::lower_bound(
      assemblies.begin(), assemblies.end(), msg_id,
      [](const auto& entry, std::uint64_t id) { return entry.msg_id < id; });
}

}  // namespace

std::size_t Network::pending_reassemblies(NodeId id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second.assemblies.size();
}

void Network::send(NodeId from, NodeId to, MessagePtr msg) {
  CROUPIER_ASSERT(msg != nullptr);
  const auto from_it = nodes_.find(from);
  CROUPIER_ASSERT_MSG(from_it != nodes_.end(), "sender not attached");

  // Serialization cost is charged here so it runs on the worker when the
  // parallel engine is active.
  const std::size_t wire_bytes = msg->wire_size();
#if defined(CROUPIER_CONFLICT_CHECK)
  // Checked builds put every decoder on a live path: each message sent
  // must decode from its own bytes and encode back to them.
  msg->check_round_trip();
#endif

  // The sender's own gateway opens/refreshes a mapping toward `to`
  // regardless of whether the packet ultimately arrives. The box belongs
  // to the node this event is sharded on, so the mutation stays inline.
  if (from_it->second.nat.has_value()) {
    sim::conflict::record_write(from, "Network: sender NAT box");
    from_it->second.nat->on_outbound(simulator_.now(), to);
  }

  if (fragmenter_.needs_fragmentation(wire_bytes)) {
    // Encode once, on the worker (pure sender-local work), into the one
    // buffer every fragment shares: the counting pass above sized it.
    // The msg_id is stamped by the serial half.
    wire::Writer w;
    w.reserve(fragmenter_.buffer_size(wire_bytes));
    msg->encode(w);
    CROUPIER_ASSERT_MSG(w.size() == wire_bytes,
                        "wire_size() disagrees with encode()");
    auto out = std::make_shared<Outgoing>(
        Outgoing{std::move(msg), fragmenter_.split(std::move(w).take())});
    simulator_.defer([this, from, to, out = std::move(out)]() mutable {
      finish_send_fragments(from, to, std::move(out));
    });
    return;
  }

  const std::size_t bytes = wire_bytes + kUdpIpHeaderBytes;
  simulator_.defer([this, from, to, msg = std::move(msg), bytes]() mutable {
    finish_send(from, to, std::move(msg), bytes);
  });
}

NatType Network::class_or_public(NodeId id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? NatType::Public : it->second.cfg.nat_type();
}

double Network::loss_probability(NodeId from, NodeId to) const {
  if (lossless_) return 0.0;
  // Class lookups are paid only when the rates differ by class.
  return loss_class_sensitive_
             ? loss_.probability(simulator_.now(), class_or_public(from),
                                 class_or_public(to))
             : loss_.probability(simulator_.now(), NatType::Public,
                                 NatType::Public);
}

sim::Duration Network::bucket_delay(NodeId from, std::size_t bytes) {
  if (packet_.bandwidth_bps == 0) return 0;
  auto it = buckets_.find(from);
  if (it == buckets_.end()) {
    it = buckets_
             .emplace(from, TokenBucket(packet_.bandwidth_bps,
                                        packet_.burst_bytes()))
             .first;
  }
  return it->second.charge(simulator_.now(), bytes);
}

void Network::finish_send(NodeId from, NodeId to, MessagePtr msg,
                          std::size_t bytes) {
  sim::conflict::record_shared_write("Network: send pipeline");
  meter_.on_send(from, bytes);
  const sim::Duration queue_delay = bucket_delay(from, bytes);

  // One die roll per packet with a positive drop probability — and none
  // otherwise, exactly the draw pattern of the historic uniform scalar,
  // which keeps every uniform-loss run byte-identical.
  const double p = loss_probability(from, to);
  if (p > 0.0 && rng_.chance(p)) {
    ++drops_.loss;
    drops_.loss_bytes += bytes;
    return;
  }

  const sim::Duration delay = queue_delay + latency_->sample(from, to, rng_);
  const sim::Affinity affinity =
      delivery_affinity_ ? delivery_affinity_(to, *msg) : sim::kSerialAffinity;
  simulator_.schedule_after(
      delay, affinity,
      [this, from, to, msg = std::move(msg), bytes]() mutable {
        deliver(from, to, std::move(msg), bytes);
      });
}

void Network::finish_send_fragments(NodeId from, NodeId to,
                                    std::shared_ptr<Outgoing> out) {
  sim::conflict::record_shared_write("Network: fragmented send pipeline");
  out->frags.set_msg_id(next_msg_id_++);
  const std::shared_ptr<const Outgoing> shared = std::move(out);
  const double p = loss_probability(from, to);
  const sim::Affinity affinity = delivery_affinity_
                                     ? delivery_affinity_(to, *shared->msg)
                                     : sim::kSerialAffinity;
  for (std::size_t i = 0; i < shared->frags.count(); ++i) {
    const std::size_t bytes = shared->frags.wire_size(i) + kUdpIpHeaderBytes;
    meter_.on_send(from, bytes);
    ++drops_.fragments_sent;
    // The datagram leaves the sender's access link whether or not the
    // loss die downstream kills it, so the bucket is charged first.
    const sim::Duration queue_delay = bucket_delay(from, bytes);
    if (p > 0.0 && rng_.chance(p)) {
      ++drops_.loss;
      drops_.loss_bytes += bytes;
      ++drops_.fragments_lost;
      continue;
    }
    const sim::Duration delay =
        queue_delay + latency_->sample(from, to, rng_);
    simulator_.schedule_after(delay, affinity,
                              [this, from, to, shared, index = i] {
                                deliver_fragment(from, to, *shared, index);
                              });
  }
}

void Network::deliver(NodeId from, NodeId to, MessagePtr msg,
                      std::size_t bytes) {
  const auto to_it = nodes_.find(to);
  if (to_it == nodes_.end()) {
    simulator_.defer([this, bytes] {
      ++drops_.dead_receiver;
      drops_.dead_receiver_bytes += bytes;
    });
    return;
  }
  if (to_it->second.nat.has_value() &&
      !to_it->second.nat->allows_inbound(simulator_.now(), from)) {
    simulator_.defer([this, bytes] {
      ++drops_.nat_filtered;
      drops_.nat_filtered_bytes += bytes;
    });
    return;
  }
  simulator_.defer([this, to, bytes] {
    ++drops_.delivered;
    drops_.delivered_bytes += bytes;
    meter_.on_deliver(to, bytes);
  });
  sim::conflict::record_write(to, "Network: receiver handler dispatch");
  to_it->second.handler->on_message(from, *msg);
}

void Network::deliver_fragment(NodeId from, NodeId to, const Outgoing& out,
                               std::size_t index) {
  const std::size_t bytes = out.frags.wire_size(index) + kUdpIpHeaderBytes;
  const auto to_it = nodes_.find(to);
  if (to_it == nodes_.end()) {
    simulator_.defer([this, bytes] {
      ++drops_.dead_receiver;
      drops_.dead_receiver_bytes += bytes;
      ++drops_.fragments_lost;
    });
    return;
  }
  if (to_it->second.nat.has_value() &&
      !to_it->second.nat->allows_inbound(simulator_.now(), from)) {
    simulator_.defer([this, bytes] {
      ++drops_.nat_filtered;
      drops_.nat_filtered_bytes += bytes;
      ++drops_.fragments_lost;
    });
    return;
  }
  simulator_.defer([this, to, bytes] {
    drops_.delivered_bytes += bytes;
    meter_.on_deliver(to, bytes);
  });

  // Reassembly entries are the receiving node's own state (this event is
  // sharded on `to`, like the NAT box above), so the mutation is inline.
  sim::conflict::record_write(to, "Network: reassembly buffers");
  const FragmentHeader h = out.frags.header(index);
  auto& assemblies = to_it->second.assemblies;
  auto it = find_slot(assemblies, h.msg_id);
  if (it == assemblies.end() || it->msg_id != h.msg_id) {
    it = assemblies.insert(
        it, Assembly{h.msg_id, simulator_.now() + packet_.reassembly_timeout,
                     std::make_unique<FragmentAssembly>(h)});
    // One GC event per entry, armed at first-fragment arrival. If the
    // message completes first, the entry sits inert — suppressing late
    // duplicates — until the timeout erases it.
    const std::uint64_t msg_id = h.msg_id;
    const sim::Affinity affinity = delivery_affinity_
                                       ? delivery_affinity_(to, *out.msg)
                                       : sim::kSerialAffinity;
    simulator_.schedule_after(
        packet_.reassembly_timeout, affinity,
        [this, to, msg_id] { expire_assembly(to, msg_id); });
  }
  if (it->pending == nullptr ||
      !it->pending->add(h, out.frags.payload(index))) {
    return;
  }
  // This fragment completed the message. The bytes were really
  // reassembled (repair fragments really decode), so they must be the
  // sender's encoding; the handler gets the carried message.
  CROUPIER_ASSERT_MSG(std::ranges::equal(it->pending->bytes(),
                                         out.frags.message()),
                      "reassembly yielded bytes other than the sender's");
  const auto held = static_cast<std::uint64_t>(it->pending->fragments_held());
  it->pending.reset();
  simulator_.defer([this, held] {
    ++drops_.delivered;
    drops_.fragments_reassembled += held;
  });
  to_it->second.handler->on_message(from, *out.msg);
}

void Network::expire_assembly(NodeId to, std::uint64_t msg_id) {
  const auto to_it = nodes_.find(to);
  if (to_it == nodes_.end()) return;  // node died; state already gone
  auto& assemblies = to_it->second.assemblies;
  const auto it = find_slot(assemblies, msg_id);
  if (it == assemblies.end() || it->msg_id != msg_id ||
      it->expires > simulator_.now()) {
    return;
  }
  if (it->pending != nullptr) {
    const auto held =
        static_cast<std::uint64_t>(it->pending->fragments_held());
    simulator_.defer([this, held] { drops_.fragments_expired += held; });
  }
  assemblies.erase(it);
}

std::string to_string(IpAddr ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip.v >> 24) & 0xff,
                (ip.v >> 16) & 0xff, (ip.v >> 8) & 0xff, ip.v & 0xff);
  return buf;
}

}  // namespace croupier::net
