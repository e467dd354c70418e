// Croupier: the paper's NAT-aware peer sampling protocol (§VI, Algorithm 2).
//
// Every node keeps two bounded views — public and private descriptors —
// and once per round sends a shuffle request to the *oldest public*
// descriptor (tail policy). Only public nodes ("croupiers") receive
// requests; they shuffle both views on the sender's behalf and reply.
// Because a private node is never the target of an exchange, no relaying
// or hole-punching is ever needed: its NAT admits the shuffle response
// simply because it sent the request.
//
// Uniform samples are drawn across the two views using the distributed
// public/private ratio estimator (core/estimator.hpp).
//
// Croupier keeps PeerSampler's default usable_neighbors() because its
// descriptors carry no traversal state that can go stale: a public-view
// edge works iff the target survives, and a private-view edge stays
// meaningful iff the target survives, because a live private node keeps
// re-anchoring itself through whatever croupiers remain (it initiates
// all of its exchanges). Contrast Gozar/Nylon, where an edge to a live
// private node dies with the relay/RVP state cached in the descriptor —
// the asymmetry behind paper fig. 7b.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/estimator.hpp"
#include "pss/protocol.hpp"
#include "pss/view.hpp"

namespace croupier::core {

/// How the capacities of the two views are set.
enum class ViewSizing : std::uint8_t {
  /// Both views have capacity PssConfig::view_size. Simple; total degree
  /// is 2x view_size.
  FixedPerView = 0,
  /// The two views share a total budget of PssConfig::view_size slots,
  /// split according to the current ratio estimate (minimum 2 each). This
  /// keeps Croupier's out-degree equal to the single-view systems', making
  /// the in-degree comparison of paper fig. 6(a) like-for-like.
  RatioProportional = 1,
};

struct CroupierConfig {
  pss::PssConfig base;
  EstimatorConfig estimator;
  ViewSizing sizing = ViewSizing::FixedPerView;
  /// Lower bound per view under RatioProportional sizing.
  std::size_t min_view_slots = 2;
};

/// Message type tags (first wire byte).
constexpr std::uint8_t kCroupierShuffleReq = 0x10;
constexpr std::uint8_t kCroupierShuffleRes = 0x11;

struct CroupierShuffleReq final
    : net::WireMessage<CroupierShuffleReq, kCroupierShuffleReq> {
  pss::NodeDescriptor sender;             // fresh self-descriptor of p
  std::vector<pss::NodeDescriptor> pub;   // random subset of view_u
  std::vector<pss::NodeDescriptor> pri;   // random subset of view_v
  std::vector<EstimateEntry> estimates;   // bounded subset of M_p (+E_p)

  [[nodiscard]] const char* name() const override {
    return "croupier.shuffle_req";
  }
  template <typename IO>
  friend void layout(IO& io, wire::Field<IO, CroupierShuffleReq> m) {
    layout(io, m.sender);
    layout(io, m.pub);
    layout(io, m.pri);
    layout(io, m.estimates);
  }
};

struct CroupierShuffleRes final
    : net::WireMessage<CroupierShuffleRes, kCroupierShuffleRes> {
  std::vector<pss::NodeDescriptor> pub;
  std::vector<pss::NodeDescriptor> pri;
  std::vector<EstimateEntry> estimates;

  [[nodiscard]] const char* name() const override {
    return "croupier.shuffle_res";
  }
  template <typename IO>
  friend void layout(IO& io, wire::Field<IO, CroupierShuffleRes> m) {
    layout(io, m.pub);
    layout(io, m.pri);
    layout(io, m.estimates);
  }
};

class Croupier final : public pss::PeerSampler {
 public:
  using Config = CroupierConfig;

  Croupier(Context ctx, CroupierConfig cfg);

  void init() override;
  void round() override;
  void on_message(net::NodeId from, const net::Message& msg) override;

  std::optional<pss::NodeDescriptor> sample() override;
  [[nodiscard]] std::vector<net::NodeId> out_neighbors() const override;

  /// The node's current Ê(ω) (equations 8/9) — what the experiments track.
  [[nodiscard]] std::optional<double> ratio_estimate() const override {
    return estimator_.estimate();
  }

  [[nodiscard]] const pss::PartialView<pss::NodeDescriptor>& public_view()
      const {
    return view_u_;
  }
  [[nodiscard]] const pss::PartialView<pss::NodeDescriptor>& private_view()
      const {
    return view_v_;
  }
  [[nodiscard]] const RatioEstimator& estimator() const { return estimator_; }

  /// Rounds in which the public view ran dry and the node re-bootstrapped
  /// (diagnostic: should stay 0 in healthy runs).
  [[nodiscard]] std::uint64_t rebootstrap_count() const {
    return rebootstraps_;
  }

 private:
  void handle_request(net::NodeId from, const CroupierShuffleReq& req);
  void handle_response(net::NodeId from, const CroupierShuffleRes& res);
  void apply_view_sizing();
  [[nodiscard]] pss::NodeDescriptor self_descriptor() const {
    return pss::NodeDescriptor::self(self(), nat_type());
  }

  CroupierConfig cfg_;
  pss::PartialView<pss::NodeDescriptor> view_u_;  // public view
  pss::PartialView<pss::NodeDescriptor> view_v_;  // private view
  RatioEstimator estimator_;

  struct SentSubsets {
    std::vector<pss::NodeDescriptor> pub;
    std::vector<pss::NodeDescriptor> pri;
  };
  pss::PendingShuffles<SentSubsets> pending_;
  std::uint64_t rebootstraps_ = 0;
};

}  // namespace croupier::core
