// Cyclon (Voulgaris et al. [6]): the classic single-view gossip PSS.
//
// Used by the paper as the randomness baseline, executed on an all-public
// membership (it has no NAT machinery; pointed at a private node, its
// shuffle request is simply filtered by the target's NAT and the exchange
// fails — which is exactly the bias/partitioning problem the NAT-aware
// protocols exist to solve, and which bench/ablation_nat_oblivious
// demonstrates).
//
// Policies (matching the paper's setup): tail node selection, push-pull
// exchange, swapper merge.
#pragma once

#include <optional>
#include <vector>

#include "pss/protocol.hpp"
#include "pss/view.hpp"

namespace croupier::baselines {

constexpr std::uint8_t kCyclonShuffleReq = 0x20;
constexpr std::uint8_t kCyclonShuffleRes = 0x21;

struct CyclonShuffleReq final
    : net::WireMessage<CyclonShuffleReq, kCyclonShuffleReq> {
  pss::NodeDescriptor sender;
  std::vector<pss::NodeDescriptor> entries;

  [[nodiscard]] const char* name() const override {
    return "cyclon.shuffle_req";
  }
  template <typename IO>
  friend void layout(IO& io, wire::Field<IO, CyclonShuffleReq> m) {
    layout(io, m.sender);
    layout(io, m.entries);
  }
};

struct CyclonShuffleRes final
    : net::WireMessage<CyclonShuffleRes, kCyclonShuffleRes> {
  std::vector<pss::NodeDescriptor> entries;

  [[nodiscard]] const char* name() const override {
    return "cyclon.shuffle_res";
  }
  template <typename IO>
  friend void layout(IO& io, wire::Field<IO, CyclonShuffleRes> m) {
    layout(io, m.entries);
  }
};

class Cyclon final : public pss::PeerSampler {
 public:
  using Config = pss::PssConfig;

  Cyclon(Context ctx, pss::PssConfig cfg);

  void init() override;
  void round() override;
  void on_message(net::NodeId from, const net::Message& msg) override;

  std::optional<pss::NodeDescriptor> sample() override;
  [[nodiscard]] std::vector<net::NodeId> out_neighbors() const override;

  [[nodiscard]] const pss::PartialView<pss::NodeDescriptor>& view() const {
    return view_;
  }

 private:
  void handle_request(net::NodeId from, const CyclonShuffleReq& req);
  void handle_response(net::NodeId from, const CyclonShuffleRes& res);

  pss::PssConfig cfg_;
  pss::PartialView<pss::NodeDescriptor> view_;

  pss::PendingShuffles<std::vector<pss::NodeDescriptor>> pending_;
};

}  // namespace croupier::baselines
