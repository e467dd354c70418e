// Gozar (Payberah, Dowling, Haridi — DAIS'11 [10]): NAT-friendly peer
// sampling with one-hop distributed NAT traversal.
//
// Gozar keeps a single mixed view. Every private node maintains a small
// redundant set of public *relay parents*; it keeps its NAT mapping toward
// each parent open with periodic pings and advertises the parents inside
// its own node descriptors. A node that wants to shuffle with a private
// target relays the request through one of the parents cached in the
// target's descriptor (one hop); the response comes back directly if the
// initiator is public, or back through the same relay otherwise.
//
// Compared to Croupier: private nodes are full shuffle targets (so they
// both receive requests and send responses), descriptors of private nodes
// are larger (they carry parent addresses), and public nodes carry relay
// traffic — the structural sources of Gozar's higher overhead in paper
// fig. 7a and its weaker post-failure connectivity in fig. 7b (a private
// node whose cached parents all died is unreachable).
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "pss/protocol.hpp"
#include "pss/view.hpp"

namespace croupier::baselines {

/// Descriptor decorated with the subject's relay parents (public nodes).
struct GozarDescriptor {
  net::NodeId id = net::kNilNode;
  net::NatType nat_type = net::NatType::Public;
  std::uint16_t age = 0;
  std::vector<net::NodeId> parents;  // empty for public nodes

  void bump_age() {
    if (age < 0xffff) ++age;
  }

  friend bool operator==(const GozarDescriptor&,
                         const GozarDescriptor&) = default;
};

void encode(wire::Writer& w, const GozarDescriptor& d);
GozarDescriptor decode_gozar_descriptor(wire::Reader& r);

void encode(wire::Writer& w, const std::vector<GozarDescriptor>& v);
std::vector<GozarDescriptor> decode_gozar_descriptors(wire::Reader& r);

constexpr std::uint8_t kGozarShuffleReq = 0x30;
constexpr std::uint8_t kGozarShuffleRes = 0x31;
constexpr std::uint8_t kGozarRelayedReq = 0x32;
constexpr std::uint8_t kGozarRelayedRes = 0x33;
constexpr std::uint8_t kGozarPing = 0x34;
constexpr std::uint8_t kGozarPong = 0x35;

struct GozarShuffleReq final : net::Message {
  GozarDescriptor sender;
  /// Distinguishes redundant relay copies of one exchange (the target
  /// answers the first copy and drops the rest).
  std::uint16_t nonce = 0;
  std::vector<GozarDescriptor> entries;

  [[nodiscard]] std::uint8_t type() const override { return kGozarShuffleReq; }
  [[nodiscard]] const char* name() const override { return "gozar.shuffle_req"; }
  void encode(wire::Writer& w) const override;
  static GozarShuffleReq decode(wire::Reader& r);
};

struct GozarShuffleRes final : net::Message {
  net::NodeId responder = net::kNilNode;
  std::vector<GozarDescriptor> entries;

  [[nodiscard]] std::uint8_t type() const override { return kGozarShuffleRes; }
  [[nodiscard]] const char* name() const override { return "gozar.shuffle_res"; }
  void encode(wire::Writer& w) const override;
  static GozarShuffleRes decode(wire::Reader& r);
};

/// Request en route to a relay parent, to be forwarded one hop.
struct GozarRelayedReq final : net::Message {
  net::NodeId final_target = net::kNilNode;
  GozarShuffleReq inner;

  [[nodiscard]] std::uint8_t type() const override { return kGozarRelayedReq; }
  [[nodiscard]] const char* name() const override { return "gozar.relayed_req"; }
  void encode(wire::Writer& w) const override;
  static GozarRelayedReq decode(wire::Reader& r);
};

/// Response en route back through the relay (private initiator case).
struct GozarRelayedRes final : net::Message {
  net::NodeId final_target = net::kNilNode;
  GozarShuffleRes inner;

  [[nodiscard]] std::uint8_t type() const override { return kGozarRelayedRes; }
  [[nodiscard]] const char* name() const override { return "gozar.relayed_res"; }
  void encode(wire::Writer& w) const override;
  static GozarRelayedRes decode(wire::Reader& r);
};

struct GozarPing final : net::Message {
  [[nodiscard]] std::uint8_t type() const override { return kGozarPing; }
  [[nodiscard]] const char* name() const override { return "gozar.ping"; }
  void encode(wire::Writer& w) const override { w.u8(type()); }
};

struct GozarPong final : net::Message {
  [[nodiscard]] std::uint8_t type() const override { return kGozarPong; }
  [[nodiscard]] const char* name() const override { return "gozar.pong"; }
  void encode(wire::Writer& w) const override { w.u8(type()); }
};

struct GozarConfig {
  pss::PssConfig base;
  std::size_t num_parents = 3;            // redundancy z
  std::size_t keepalive_rounds = 10;      // ping period (rounds); < NAT timeout
  std::size_t parent_timeout_rounds = 45; // drop parent after silent this long
  /// Relay copies per exchange with a private target. Gozar's default is
  /// one relay with failover; >1 enables its redundant-relaying variant
  /// (lower latency, duplicated relay traffic) — ablated in
  /// bench/ablation_gozar_redundancy.
  std::size_t relay_redundancy = 1;
};

class Gozar final : public pss::PeerSampler {
 public:
  using Config = GozarConfig;

  Gozar(Context ctx, GozarConfig cfg);

  void init() override;
  void round() override;
  void on_message(net::NodeId from, const net::Message& msg) override;

  std::optional<pss::NodeDescriptor> sample() override;
  [[nodiscard]] std::vector<net::NodeId> out_neighbors() const override;
  [[nodiscard]] std::vector<net::NodeId> usable_neighbors(
      const AliveFn& alive) const override;

  [[nodiscard]] const pss::PartialView<GozarDescriptor>& view() const {
    return view_;
  }
  [[nodiscard]] std::vector<net::NodeId> parents() const;

 private:
  void handle_request(net::NodeId physical_from, const GozarShuffleReq& req);
  void handle_response(const GozarShuffleRes& res);
  void maintain_parents();
  [[nodiscard]] GozarDescriptor self_descriptor() const;

  GozarConfig cfg_;
  pss::PartialView<GozarDescriptor> view_;

  struct Parent {
    net::NodeId id;
    std::uint64_t last_pong_round;
  };
  std::vector<Parent> parents_;  // only populated on private nodes
  std::uint64_t round_counter_ = 0;

  struct Pending {
    net::NodeId target;
    std::vector<GozarDescriptor> sent;
  };
  std::deque<Pending> pending_;

  // Dedup window for redundant relay copies: (initiator, nonce) pairs.
  std::deque<std::pair<net::NodeId, std::uint16_t>> seen_exchanges_;
  std::uint16_t next_nonce_ = 1;
};

}  // namespace croupier::baselines
