#include "baselines/arrg.hpp"

#include <algorithm>
#include <memory>

#include "common/assert.hpp"

namespace croupier::baselines {

Arrg::Arrg(Context ctx, ArrgConfig cfg)
    : PeerSampler(std::move(ctx)), cfg_(cfg), view_(cfg.base.view_size, ctx_.arena) {
  CROUPIER_ASSERT(cfg_.open_list_size > 0);
  view_.set_owner(self());
}

void Arrg::init() {
  const auto seeds =
      bootstrap().sample_any(cfg_.base.bootstrap_fanout, self(), rng());
  for (net::NodeId id : seeds) {
    const net::NatType type = ctx_.network->attached(id)
                                  ? ctx_.network->type_of(id)
                                  : net::NatType::Public;
    view_.force_add(pss::NodeDescriptor{id, type, 0});
  }
}

void Arrg::note_success(net::NodeId partner) {
  const auto it = std::find(open_list_.begin(), open_list_.end(), partner);
  if (it != open_list_.end()) open_list_.erase(it);
  if (open_list_.size() == cfg_.open_list_size) {
    open_list_.erase(open_list_.begin());
  }
  open_list_.push_back(partner);
}

void Arrg::start_exchange(net::NodeId target) {
  ArrgShuffleReq req;
  req.sender = pss::NodeDescriptor::self(self(), nat_type());
  req.entries = view_.random_subset_excluding(cfg_.base.shuffle_size - 1,
                                              target, rng());
  inflight_ = Pending{target, req.entries, false};
  network().send(self(), target,
                 std::make_shared<ArrgShuffleReq>(std::move(req)));
}

void Arrg::round() {
  view_.age_all();

  // Failure detection at round granularity: an exchange started last
  // round that never got a response counts as failed, and we retry with a
  // member of the open list (the ARRG fallback that causes its bias).
  if (inflight_.has_value() && !inflight_->answered &&
      !open_list_.empty()) {
    ++fallbacks_;
    const net::NodeId fallback =
        open_list_[rng().index(open_list_.size())];
    start_exchange(fallback);
    return;
  }

  const auto target = view_.random_entry(rng());
  if (!target.has_value()) {
    init();
    return;
  }
  start_exchange(target->id);
}

void Arrg::on_message(net::NodeId from, const net::Message& msg) {
  switch (msg.type()) {
    case kArrgShuffleReq: {
      const auto& req = static_cast<const ArrgShuffleReq&>(msg);
      ArrgShuffleRes res;
      res.entries =
          view_.random_subset_excluding(cfg_.base.shuffle_size, from, rng());
      std::vector<pss::NodeDescriptor> incoming = req.entries;
      incoming.push_back(req.sender);
      view_.merge_swapper(res.entries, incoming, self());
      note_success(from);
      network().send(self(), from,
                     std::make_shared<ArrgShuffleRes>(std::move(res)));
      break;
    }
    case kArrgShuffleRes: {
      const auto& res = static_cast<const ArrgShuffleRes&>(msg);
      if (inflight_.has_value() && inflight_->target == from) {
        view_.merge_swapper(inflight_->sent, res.entries, self());
        inflight_->answered = true;
        note_success(from);
      }
      break;
    }
    default:
      break;
  }
}

std::optional<pss::NodeDescriptor> Arrg::sample() {
  return view_.random_entry(rng());
}

std::vector<net::NodeId> Arrg::out_neighbors() const {
  std::vector<net::NodeId> out;
  out.reserve(view_.size());
  for (const auto& d : view_.entries()) out.push_back(d.id);
  return out;
}

}  // namespace croupier::baselines
