// ARRG (Drost et al., HPDC'07 [15]): the first NAT-aware PSS, included as
// an extension baseline to demonstrate the bias the paper describes in
// §II ("the open list biases the PSS, since the nodes in the open list
// are selected more frequently for gossiping").
//
// ARRG keeps a single view plus an *open list* of peers with whom an
// exchange succeeded in the past. It gossips with a random view member;
// when the exchange fails (here: no response by the next round, e.g. the
// target is behind a NAT), it falls back to a random open-list member.
// Successful partners enter the open list. No relaying, no NAT traversal —
// just retry-with-known-good, which over-represents reachable nodes.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "pss/protocol.hpp"
#include "pss/view.hpp"

namespace croupier::baselines {

constexpr std::uint8_t kArrgShuffleReq = 0x60;
constexpr std::uint8_t kArrgShuffleRes = 0x61;

struct ArrgShuffleReq final
    : net::WireMessage<ArrgShuffleReq, kArrgShuffleReq> {
  pss::NodeDescriptor sender;
  std::vector<pss::NodeDescriptor> entries;

  [[nodiscard]] const char* name() const override { return "arrg.shuffle_req"; }
  template <typename IO>
  friend void layout(IO& io, wire::Field<IO, ArrgShuffleReq> m) {
    layout(io, m.sender);
    layout(io, m.entries);
  }
};

struct ArrgShuffleRes final
    : net::WireMessage<ArrgShuffleRes, kArrgShuffleRes> {
  std::vector<pss::NodeDescriptor> entries;

  [[nodiscard]] const char* name() const override { return "arrg.shuffle_res"; }
  template <typename IO>
  friend void layout(IO& io, wire::Field<IO, ArrgShuffleRes> m) {
    layout(io, m.entries);
  }
};

struct ArrgConfig {
  pss::PssConfig base;
  std::size_t open_list_size = 20;
};

class Arrg final : public pss::PeerSampler {
 public:
  using Config = ArrgConfig;

  Arrg(Context ctx, ArrgConfig cfg);

  void init() override;
  void round() override;
  void on_message(net::NodeId from, const net::Message& msg) override;

  std::optional<pss::NodeDescriptor> sample() override;
  [[nodiscard]] std::vector<net::NodeId> out_neighbors() const override;

  [[nodiscard]] std::span<const net::NodeId> open_list() const {
    return open_list_;
  }
  [[nodiscard]] std::uint64_t fallback_count() const { return fallbacks_; }
  [[nodiscard]] const pss::PartialView<pss::NodeDescriptor>& view() const {
    return view_;
  }

 private:
  void start_exchange(net::NodeId target);
  void note_success(net::NodeId partner);

  ArrgConfig cfg_;
  pss::PartialView<pss::NodeDescriptor> view_;
  std::vector<net::NodeId> open_list_;  // bounded, most recent at the back

  struct Pending {
    net::NodeId target;
    std::vector<pss::NodeDescriptor> sent;
    bool answered = false;
  };
  std::optional<Pending> inflight_;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace croupier::baselines
