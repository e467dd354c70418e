// Nylon (Kermarrec, Pace, Quéma, Schiavoni — ICDCS'09 [9]): NAT-resilient
// gossip peer sampling via rendezvous points (RVPs) and hole punching.
//
// Single mixed view. Two nodes become each other's RVP whenever they
// complete a view exchange; each node keeps its NAT mappings toward its
// RVPs open with periodic keepalives. To shuffle with a private target,
// the initiator sends a hole-punch request along the chain of RVPs through
// which the target's descriptor travelled (each descriptor remembers the
// neighbour it was learned from); the last RVP — one that holds a live
// link to the target — delivers a connect request, the target punches a
// packet back to the initiator, and the exchange then proceeds directly.
// Simultaneously the initiator fires a probe packet at the target so both
// NATs hold mappings (classic UDP simultaneous open).
//
// Chains are unbounded in the original design (we cap the hop count only
// as a simulation safety net); a single dead hop fails the exchange —
// the fragility under churn/failure the paper reports (fig. 7b), while
// keepalives to the RVP set dominate its overhead (fig. 7a).
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "pss/protocol.hpp"
#include "pss/view.hpp"

namespace croupier::baselines {

/// Descriptor annotated with the neighbour it was learned from — the next
/// hop of the RVP chain toward the subject. Local bookkeeping only (the
/// receiver of a descriptor always sets it to the exchange partner), so
/// the wire layout stays the base 8 bytes.
struct NylonDescriptor {
  net::NodeId id = net::kNilNode;
  net::NatType nat_type = net::NatType::Public;
  std::uint16_t age = 0;
  net::NodeId learned_from = net::kNilNode;

  void bump_age() {
    if (age < 0xffff) ++age;
  }

  friend bool operator==(const NylonDescriptor&,
                         const NylonDescriptor&) = default;
};

constexpr std::uint8_t kNylonShuffleReq = 0x40;
constexpr std::uint8_t kNylonShuffleRes = 0x41;
constexpr std::uint8_t kNylonPunchReq = 0x42;
constexpr std::uint8_t kNylonConnect = 0x43;
constexpr std::uint8_t kNylonPunchOpen = 0x44;
constexpr std::uint8_t kNylonProbe = 0x45;
constexpr std::uint8_t kNylonKeepalive = 0x46;

void encode(wire::Writer& w, const NylonDescriptor& d);
NylonDescriptor decode_nylon_descriptor(wire::Reader& r);
void encode(wire::Writer& w, const std::vector<NylonDescriptor>& v);
std::vector<NylonDescriptor> decode_nylon_descriptors(wire::Reader& r);

struct NylonShuffleReq final : net::Message {
  NylonDescriptor sender;
  std::vector<NylonDescriptor> entries;

  [[nodiscard]] std::uint8_t type() const override { return kNylonShuffleReq; }
  [[nodiscard]] const char* name() const override { return "nylon.shuffle_req"; }
  void encode(wire::Writer& w) const override;
  static NylonShuffleReq decode(wire::Reader& r);
};

struct NylonShuffleRes final : net::Message {
  std::vector<NylonDescriptor> entries;

  [[nodiscard]] std::uint8_t type() const override { return kNylonShuffleRes; }
  [[nodiscard]] const char* name() const override { return "nylon.shuffle_res"; }
  void encode(wire::Writer& w) const override;
  static NylonShuffleRes decode(wire::Reader& r);
};

/// Hole-punch request travelling along the RVP chain toward `target`.
struct NylonPunchReq final : net::Message {
  net::NodeId initiator = net::kNilNode;
  net::NatType initiator_type = net::NatType::Public;
  net::NodeId target = net::kNilNode;
  std::uint8_t hops = 0;

  [[nodiscard]] std::uint8_t type() const override { return kNylonPunchReq; }
  [[nodiscard]] const char* name() const override { return "nylon.punch_req"; }
  void encode(wire::Writer& w) const override;
  static NylonPunchReq decode(wire::Reader& r);
};

/// Final chain hop -> target: "initiator wants to talk; punch back".
struct NylonConnect final : net::Message {
  net::NodeId initiator = net::kNilNode;

  [[nodiscard]] std::uint8_t type() const override { return kNylonConnect; }
  [[nodiscard]] const char* name() const override { return "nylon.connect"; }
  void encode(wire::Writer& w) const override;
  static NylonConnect decode(wire::Reader& r);
};

/// Target -> initiator: opens the target's NAT toward the initiator.
struct NylonPunchOpen final : net::Message {
  [[nodiscard]] std::uint8_t type() const override { return kNylonPunchOpen; }
  [[nodiscard]] const char* name() const override { return "nylon.punch_open"; }
  void encode(wire::Writer& w) const override { w.u8(type()); }
};

/// Initiator -> target at punch start: opens the initiator's own NAT
/// (usually filtered at the target; its purpose is the mapping it leaves
/// in the initiator's gateway).
struct NylonProbe final : net::Message {
  [[nodiscard]] std::uint8_t type() const override { return kNylonProbe; }
  [[nodiscard]] const char* name() const override { return "nylon.probe"; }
  void encode(wire::Writer& w) const override { w.u8(type()); }
};

struct NylonKeepalive final : net::Message {
  [[nodiscard]] std::uint8_t type() const override { return kNylonKeepalive; }
  [[nodiscard]] const char* name() const override { return "nylon.keepalive"; }
  void encode(wire::Writer& w) const override { w.u8(type()); }
};

/// A bounded table of node ids, each stamped with the round it was last
/// touched: Nylon's RVP links and its punch-chain routes. One vector
/// sorted by id, so lookups are binary searches and iteration is
/// ascending id by construction. A miss on a full table evicts the entry
/// with the smallest round, ties to the lower id: in id order, the first
/// entry holding the minimal round.
class RoundTable {
 public:
  struct Entry {
    net::NodeId id;
    net::NodeId next_hop;  // routes only; kNilNode in the RVP table
    std::uint64_t round;
  };

  /// `capacity` must be at least 1: a full table makes room by eviction.
  explicit RoundTable(std::size_t capacity);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

  /// The entry for `id` if it was touched within `ttl` rounds of `now`.
  [[nodiscard]] const Entry* find_live(net::NodeId id, std::uint64_t now,
                                       std::size_t ttl) const;

  /// Re-stamps `id` with `round` if the table holds it, live or not.
  void refresh(net::NodeId id, std::uint64_t round);

  /// Inserts `id`, or re-stamps it and replaces its next hop.
  void touch(net::NodeId id, std::uint64_t round,
             net::NodeId next_hop = net::kNilNode);

  /// Drops every entry not touched within `ttl` rounds of `now`.
  void expire(std::uint64_t now, std::size_t ttl);

 private:
  std::size_t capacity_;
  std::vector<Entry> entries_;
};

struct NylonConfig {
  pss::PssConfig base;
  std::size_t max_rvp_links = 80;      // bound on the RVP table
  std::size_t keepalive_rounds = 2;    // keepalive period per live RVP link
  std::size_t rvp_ttl_rounds = 80;     // link expiry without refresh
  std::uint8_t max_punch_hops = 16;    // simulation safety net (paper: unbounded)
  std::size_t routing_table_size = 200;  // punch-chain next-hop entries
  std::size_t routing_ttl_rounds = 60;
};

class Nylon final : public pss::PeerSampler {
 public:
  using Config = NylonConfig;

  Nylon(Context ctx, NylonConfig cfg);

  void init() override;
  void round() override;
  void on_message(net::NodeId from, const net::Message& msg) override;

  std::optional<pss::NodeDescriptor> sample() override;
  [[nodiscard]] std::vector<net::NodeId> out_neighbors() const override;
  [[nodiscard]] std::vector<net::NodeId> usable_neighbors(
      const AliveFn& alive) const override;

  [[nodiscard]] const pss::PartialView<NylonDescriptor>& view() const {
    return view_;
  }
  [[nodiscard]] std::size_t rvp_link_count() const { return rvp_links_.size(); }
  [[nodiscard]] std::size_t routing_entry_count() const {
    return routing_.size();
  }
  [[nodiscard]] std::uint64_t punches_started() const { return punches_started_; }
  [[nodiscard]] std::uint64_t punches_completed() const {
    return punches_completed_;
  }

 private:
  void handle_request(net::NodeId from, const NylonShuffleReq& req);
  void handle_response(net::NodeId from, const NylonShuffleRes& res);
  void handle_punch_req(net::NodeId from, const NylonPunchReq& punch);
  void send_shuffle(const NylonDescriptor& target, NylonShuffleReq req);
  void touch_rvp(net::NodeId peer);
  [[nodiscard]] bool rvp_live(net::NodeId peer) const;
  void keepalives();
  void learn_route(net::NodeId target, net::NodeId next_hop);
  [[nodiscard]] net::NodeId route_to(net::NodeId target) const;

  NylonConfig cfg_;
  pss::PartialView<NylonDescriptor> view_;
  RoundTable rvp_links_;  // RVP peers by id, with the round last heard

  // Punch-chain routing state, sorted by target: the neighbour each
  // target's descriptor was last received from (the entry's next_hop)
  // and the round it arrived; a full table evicts the stalest route
  // ("maintaining routing tables to nodes that have recently been
  // communicated with", paper §I on Nylon). The current *view* is not
  // enough: swapper merging ships descriptors away immediately, so chains
  // must follow historical forwarding state.
  RoundTable routing_;
  std::uint64_t round_counter_ = 0;

  struct Pending {
    net::NodeId target;
    std::vector<NylonDescriptor> sent;
  };
  std::deque<Pending> pending_;

  // Prepared shuffle requests awaiting hole-punch completion.
  struct AwaitingPunch {
    net::NodeId target;
    NylonShuffleReq req;
  };
  std::deque<AwaitingPunch> awaiting_punch_;

  std::uint64_t punches_started_ = 0;
  std::uint64_t punches_completed_ = 0;
};

}  // namespace croupier::baselines
