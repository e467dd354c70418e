// The simulated UDP network: unreliable, unordered datagram delivery with
// NAT semantics.
//
// send() charges traffic, records the sender's outbound NAT mapping, rolls
// the loss die, samples a one-way latency and schedules delivery. At
// delivery time the packet is dropped if the receiver has left the network
// or if the receiver's NAT/firewall filter rejects the sender — exactly
// the property ("private nodes cannot be reached unless they initiated
// contact") that all the protocols in this repository are designed around.
//
// Packet layer (net/packet): with a PacketConfig whose mtu is positive, a
// message larger than the MTU is encoded once into one buffer holding its
// source chunks and FEC repair rows (optional), shared read-only by the
// delivery events of its framed fragments. Each fragment is its own
// datagram — its own loss die, latency jitter and byte charge. Each
// receiver keeps its reassembly entries in a vector sorted by msg_id; an
// entry frees its working state when its message completes and is erased
// by one deterministic GC event, armed at its first fragment. A
// positive bandwidth_bps additionally meters every sender through a
// TokenBucket whose queueing delay adds to the propagation latency, so
// saturation shows up as RTT inflation. With the default config
// (mtu=0, no bandwidth cap) none of this machinery runs and the Network
// is byte-identical to its pre-packet self.
//
// Parallel-engine contract: send() and deliver() run on worker threads
// when a round-synchronous executor is attached, so every touch of shared
// state — the traffic meter, the loss/latency RNG, the drop counters, and
// the event queue — is routed through Simulator::defer(), which replays
// the effects serially in deterministic order. Only the calling node's
// own NAT box (and, on delivery, the receiving node's own reassembly
// entries — sharded by receiver exactly like the NAT box) is mutated
// inline. A fragmented message's shared buffer is built on the sender's
// worker, stamped with its msg_id by the serial half, and only read
// after that, by delivery events on any worker. Outside a parallel
// batch defer() degenerates to an immediate call and nothing changes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/hash_index.hpp"
#include "net/address.hpp"
#include "net/latency.hpp"
#include "net/loss.hpp"
#include "net/message.hpp"
#include "net/nat.hpp"
#include "net/packet.hpp"
#include "net/token_bucket.hpp"
#include "net/traffic.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace croupier::net {

class Network {
 public:
  struct DropStats {
    std::uint64_t loss = 0;        // random packet loss (datagrams)
    std::uint64_t nat_filtered = 0;  // receiver NAT/firewall rejected sender
    std::uint64_t dead_receiver = 0;  // receiver left before delivery
    std::uint64_t delivered = 0;      // messages handed to handlers

    // Wire bytes (UDP/IP headers included) per datagram outcome.
    std::uint64_t loss_bytes = 0;
    std::uint64_t nat_filtered_bytes = 0;
    std::uint64_t dead_receiver_bytes = 0;
    std::uint64_t delivered_bytes = 0;  // accepted by live receivers

    // Packet layer (mtu > 0) only.
    std::uint64_t fragments_sent = 0;
    std::uint64_t fragments_lost = 0;  // loss + NAT-filtered + dead receiver
    std::uint64_t fragments_reassembled = 0;  // consumed by completed messages
    std::uint64_t fragments_expired = 0;      // dropped by reassembly GC
  };

  /// A lossless `loss` (the default) never rolls the loss die, the
  /// historic loss=0 hot path. Asserts every rate is in [0, 1).
  Network(sim::Simulator& simulator, std::unique_ptr<LatencyModel> latency,
          sim::RngStream rng, const LossConfig& loss = {});

  /// Arms the packet layer (MTU fragmentation, FEC, bandwidth caps).
  /// Call before any traffic flows; the default PacketConfig keeps every
  /// pre-packet run byte-identical.
  void set_packet_config(const PacketConfig& cfg);

  /// Registers a node. The handler must outlive the attachment.
  void attach(NodeId id, const NatConfig& cfg, MessageHandler& handler);

  /// Removes a node (death/leave). In-flight packets to it are dropped.
  void detach(NodeId id);

  /// Swaps a node's ground-truth NAT configuration in place (oscillating
  /// reclassification scenarios). The NAT box is rebuilt from scratch and
  /// half-finished reassemblies are dropped — a real re-homing loses its
  /// mappings the same way.
  void reclassify(NodeId id, const NatConfig& cfg);

  [[nodiscard]] bool attached(NodeId id) const {
    return nodes_.contains(id);
  }
  [[nodiscard]] std::size_t attached_count() const { return nodes_.size(); }

  /// Ground-truth configuration queries.
  [[nodiscard]] NatType type_of(NodeId id) const;
  [[nodiscard]] const NatBox* nat_of(NodeId id) const;
  [[nodiscard]] IpAddr local_ip(NodeId id) const;
  [[nodiscard]] IpAddr public_ip(NodeId id) const;

  /// Sends a datagram. `from` must be attached; `to` may be any id but
  /// kNilNode, which a private sender's NAT box cannot map (the packet is
  /// silently dropped if unreachable, like real UDP).
  void send(NodeId from, NodeId to, MessagePtr msg);

  /// Decides the affinity tag of a delivery event: the receiving node for
  /// messages handled by per-node protocol state, kSerialAffinity for
  /// messages whose handlers touch cross-node state (NAT identification,
  /// application-layer traffic). Unset = every delivery is serial, which
  /// is always safe.
  using DeliveryAffinityFn =
      std::function<sim::Affinity(NodeId to, const Message& msg)>;
  void set_delivery_affinity(DeliveryAffinityFn fn) {
    delivery_affinity_ = std::move(fn);
  }

  /// Lower bound on the one-way latency of every packet (the parallel
  /// engine's causal lookahead; token-bucket queueing only ever adds).
  [[nodiscard]] sim::Duration min_latency() const {
    return latency_->min_latency();
  }

  /// The pairwise latency structure (scenario processes use
  /// base_latency() as the metric for latency-correlated cohorts).
  [[nodiscard]] const LatencyModel& latency_model() const {
    return *latency_;
  }

  [[nodiscard]] TrafficMeter& meter() { return meter_; }
  [[nodiscard]] const DropStats& drops() const { return drops_; }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }

  /// Reassembly entries at `id` that their GC event has not erased yet:
  /// incomplete ones and completed ones swallowing late fragments
  /// (tests).
  [[nodiscard]] std::size_t pending_reassemblies(NodeId id) const;

 private:
  /// One fragmented message in flight: the carried message and its
  /// fragment set, shared read-only by every fragment's delivery event
  /// once the serial half has stamped its msg_id.
  struct Outgoing {
    MessagePtr msg;
    FragmentSet frags;
  };

  /// A receiver's reassembly entry. `pending` holds the working state
  /// until the message completes and is released then; the inert entry
  /// left behind swallows late fragments until its GC event erases it.
  /// `expires` is the time that event fires: reclassify() drops entries
  /// but not their events, so an older event for the same msg_id must
  /// leave a newer entry alone.
  struct Assembly {
    std::uint64_t msg_id;
    sim::SimTime expires;
    std::unique_ptr<FragmentAssembly> pending;
  };

  struct NodeState {
    NatConfig cfg;
    std::optional<NatBox> nat;  // engaged for Natted/Firewalled nodes
    MessageHandler* handler = nullptr;
    /// Reassembly entries sorted by msg_id. Receiver-sharded state like
    /// the NAT box: mutated inline from delivery events.
    std::vector<Assembly> assemblies;
  };

  /// The shared-state half of send(): meter charge, bucket charge, loss
  /// roll, latency sample, delivery scheduling. Runs serially, as a
  /// defer() effect of send(); conflict-check builds abort if it runs
  /// inside a parallel batch.
  void finish_send(NodeId from, NodeId to, MessagePtr msg, std::size_t bytes);
  /// Same serial half for a fragmented message: stamps the msg_id, then
  /// runs the per-datagram pipeline for every fragment.
  void finish_send_fragments(NodeId from, NodeId to,
                             std::shared_ptr<Outgoing> out);
  void deliver(NodeId from, NodeId to, MessagePtr msg, std::size_t bytes);
  void deliver_fragment(NodeId from, NodeId to, const Outgoing& out,
                        std::size_t index);
  /// Reassembly GC: erases the entry for (to, msg_id) that expires now;
  /// counts its fragments as expired when the message never completed.
  void expire_assembly(NodeId to, std::uint64_t msg_id);

  /// Sender's token-bucket queueing delay for one datagram (0 when
  /// bandwidth metering is off). Serial-half only.
  sim::Duration bucket_delay(NodeId from, std::size_t bytes);

  /// Loss probability for a (from, to) datagram right now.
  [[nodiscard]] double loss_probability(NodeId from, NodeId to) const;

  /// NAT class for the loss rates; a node that already left resolves to
  /// Public (the packet is doomed at delivery anyway — the rule only has
  /// to be deterministic so both engines roll the same die).
  [[nodiscard]] NatType class_or_public(NodeId id) const;

  sim::Simulator& simulator_;
  std::unique_ptr<LatencyModel> latency_;
  sim::RngStream rng_;
  LossConfig loss_;
  bool lossless_;              // cached loss_.lossless()
  bool loss_class_sensitive_;  // cached !loss_.flat()
  PacketConfig packet_;
  Fragmenter fragmenter_{PacketConfig{}};
  std::uint64_t next_msg_id_ = 1;  // serial half only
  HashIndex<NodeId, NodeState> nodes_;
  /// Per-sender buckets, created on first charge; serial-half only.
  HashIndex<NodeId, TokenBucket> buckets_;
  TrafficMeter meter_;
  DropStats drops_;
  DeliveryAffinityFn delivery_affinity_;
};

}  // namespace croupier::net
