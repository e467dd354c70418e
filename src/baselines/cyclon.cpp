#include "baselines/cyclon.hpp"

#include <memory>

#include "common/assert.hpp"

namespace croupier::baselines {

Cyclon::Cyclon(Context ctx, pss::PssConfig cfg)
    : PeerSampler(std::move(ctx)), cfg_(cfg), view_(cfg.view_size, ctx_.arena) {
  CROUPIER_ASSERT(cfg_.shuffle_size > 0 &&
                  cfg_.shuffle_size <= cfg_.view_size);
  view_.set_owner(self());
}

void Cyclon::init() {
  // Cyclon has no NAT awareness; its original deployment bootstraps from
  // any known members. The paper runs it on all-public networks, where
  // sample_any == sample_public.
  const auto seeds =
      bootstrap().sample_any(cfg_.bootstrap_fanout, self(), rng());
  for (net::NodeId id : seeds) {
    const net::NatType type = ctx_.network->attached(id)
                                  ? ctx_.network->type_of(id)
                                  : net::NatType::Public;
    view_.force_add(pss::NodeDescriptor{id, type, 0});
  }
}

void Cyclon::round() {
  view_.age_all();
  const auto target = view_.oldest();
  if (!target.has_value()) {
    init();
    return;
  }
  view_.remove(target->id);

  CyclonShuffleReq req;
  req.sender = pss::NodeDescriptor::self(self(), nat_type());
  req.entries = view_.random_subset(cfg_.shuffle_size - 1, rng());

  pending_.push(target->id, req.entries);

  network().send(self(), target->id,
                 std::make_shared<CyclonShuffleReq>(std::move(req)));
}

void Cyclon::on_message(net::NodeId from, const net::Message& msg) {
  switch (msg.type()) {
    case kCyclonShuffleReq:
      handle_request(from, static_cast<const CyclonShuffleReq&>(msg));
      break;
    case kCyclonShuffleRes:
      handle_response(from, static_cast<const CyclonShuffleRes&>(msg));
      break;
    default:
      break;
  }
}

void Cyclon::handle_request(net::NodeId from, const CyclonShuffleReq& req) {
  CyclonShuffleRes res;
  res.entries = view_.random_subset_excluding(cfg_.shuffle_size, from, rng());

  std::vector<pss::NodeDescriptor> incoming = req.entries;
  incoming.push_back(req.sender);
  pss::merge_by_policy<pss::NodeDescriptor>(view_, cfg_.merge, res.entries,
                                            incoming, self());

  network().send(self(), from,
                 std::make_shared<CyclonShuffleRes>(std::move(res)));
}

void Cyclon::handle_response(net::NodeId from, const CyclonShuffleRes& res) {
  const auto sent = pending_.take(from);
  pss::merge_by_policy<pss::NodeDescriptor>(view_, cfg_.merge, sent,
                                            res.entries, self());
}

std::optional<pss::NodeDescriptor> Cyclon::sample() {
  return view_.random_entry(rng());
}

std::vector<net::NodeId> Cyclon::out_neighbors() const {
  std::vector<net::NodeId> out;
  out.reserve(view_.size());
  for (const auto& d : view_.entries()) out.push_back(d.id);
  return out;
}

}  // namespace croupier::baselines
