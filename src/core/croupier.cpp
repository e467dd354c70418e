#include "core/croupier.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/assert.hpp"

namespace croupier::core {

Croupier::Croupier(Context ctx, CroupierConfig cfg)
    : PeerSampler(std::move(ctx)),
      cfg_(cfg),
      view_u_(cfg.base.view_size, ctx_.arena),
      view_v_(cfg.base.view_size, ctx_.arena),
      estimator_(self(), nat_type(), cfg.estimator) {
  CROUPIER_ASSERT(cfg_.base.shuffle_size > 0);
  CROUPIER_ASSERT(cfg_.base.shuffle_size <= cfg_.base.view_size);
  if (cfg_.sizing == ViewSizing::RatioProportional) {
    CROUPIER_ASSERT(cfg_.base.view_size >= 2 * cfg_.min_view_slots);
  }
  view_u_.set_owner(self());
  view_v_.set_owner(self());
}

void Croupier::init() {
  const auto seeds =
      bootstrap().sample_public(cfg_.base.bootstrap_fanout, self(), rng());
  for (net::NodeId id : seeds) {
    view_u_.force_add(pss::NodeDescriptor{id, net::NatType::Public, 0});
  }
}

void Croupier::apply_view_sizing() {
  if (cfg_.sizing != ViewSizing::RatioProportional) return;
  const std::size_t total = cfg_.base.view_size;
  const double est = estimator_.estimate();
  auto pub_slots = static_cast<std::size_t>(
      std::lround(est * static_cast<double>(total)));
  pub_slots = std::clamp(pub_slots, cfg_.min_view_slots,
                         total - cfg_.min_view_slots);
  view_u_.set_capacity(pub_slots);
  view_v_.set_capacity(total - pub_slots);
}

void Croupier::round() {
  // Algorithm 2, procedure Round.
  view_u_.age_all();
  view_v_.age_all();
  estimator_.begin_round();
  apply_view_sizing();

  // Tail policy over the public view: only croupiers are shuffle targets.
  const auto target = view_u_.oldest();
  if (!target.has_value()) {
    // Isolated (all public descriptors consumed without responses —
    // massive failure). Fall back to the bootstrap oracle, as a deployed
    // node would re-contact the bootstrap server.
    ++rebootstraps_;
    init();
    return;
  }
  view_u_.remove(target->id);

  // The shuffle budget (paper: 5 descriptors per exchange, same for all
  // compared systems) is split across the two views; the fresh
  // self-descriptor occupies one slot of its class (Algorithm 2, lines
  // 14-21).
  const std::size_t pub_budget = (cfg_.base.shuffle_size + 1) / 2;
  const std::size_t pri_budget = cfg_.base.shuffle_size - pub_budget;
  const bool is_public = nat_type() == net::NatType::Public;
  CroupierShuffleReq req;
  req.sender = self_descriptor();
  req.pub =
      view_u_.random_subset(is_public ? pub_budget - 1 : pub_budget, rng());
  req.pri = view_v_.random_subset(
      is_public ? pri_budget : (pri_budget > 0 ? pri_budget - 1 : 0), rng());
  req.estimates = estimator_.share(rng());

  pending_.push(target->id, SentSubsets{req.pub, req.pri});

  network().send(self(), target->id,
                 std::make_shared<CroupierShuffleReq>(std::move(req)));
}

void Croupier::on_message(net::NodeId from, const net::Message& msg) {
  switch (msg.type()) {
    case kCroupierShuffleReq:
      handle_request(from, static_cast<const CroupierShuffleReq&>(msg));
      break;
    case kCroupierShuffleRes:
      handle_response(from, static_cast<const CroupierShuffleRes&>(msg));
      break;
    default:
      // Unknown message: ignore, like a UDP service would.
      break;
  }
}

void Croupier::handle_request(net::NodeId from,
                              const CroupierShuffleReq& req) {
  if (nat_type() != net::NatType::Public) {
    // Shuffle requests are addressed to public-view descriptors only, so
    // this cannot happen with truthful NAT identification; tolerate it
    // (drop) rather than corrupt the estimator.
    return;
  }
  // Algorithm 2 lines 26-30: count the hit by the sender's class.
  estimator_.count_request(req.sender.nat_type);

  const std::size_t pub_budget = (cfg_.base.shuffle_size + 1) / 2;
  const std::size_t pri_budget = cfg_.base.shuffle_size - pub_budget;
  CroupierShuffleRes res;
  res.pub = view_u_.random_subset_excluding(pub_budget, from, rng());
  res.pri = view_v_.random_subset_excluding(pri_budget, from, rng());
  res.estimates = estimator_.share(rng());

  // Merge the received subsets (sender's self-descriptor joins its class).
  // The sender's class is copied with room for it, so appending the
  // sender does not regrow the copy.
  const auto copy = [](const std::vector<pss::NodeDescriptor>& subset,
                       bool room) {
    std::vector<pss::NodeDescriptor> out;
    out.reserve(subset.size() + (room ? 1 : 0));
    out.assign(subset.begin(), subset.end());
    return out;
  };
  const bool public_sender = req.sender.nat_type == net::NatType::Public;
  std::vector<pss::NodeDescriptor> in_pub = copy(req.pub, public_sender);
  std::vector<pss::NodeDescriptor> in_pri = copy(req.pri, !public_sender);
  (public_sender ? in_pub : in_pri).push_back(req.sender);
  pss::merge_by_policy<pss::NodeDescriptor>(view_u_, cfg_.base.merge,
                                            res.pub, in_pub, self());
  pss::merge_by_policy<pss::NodeDescriptor>(view_v_, cfg_.base.merge,
                                            res.pri, in_pri, self());
  estimator_.merge(req.estimates);

  network().send(self(), from,
                 std::make_shared<CroupierShuffleRes>(std::move(res)));
}

void Croupier::handle_response(net::NodeId from,
                               const CroupierShuffleRes& res) {
  const SentSubsets sent = pending_.take(from);
  pss::merge_by_policy<pss::NodeDescriptor>(view_u_, cfg_.base.merge,
                                            sent.pub, res.pub, self());
  pss::merge_by_policy<pss::NodeDescriptor>(view_v_, cfg_.base.merge,
                                            sent.pri, res.pri, self());
  estimator_.merge(res.estimates);
}

std::optional<pss::NodeDescriptor> Croupier::sample() {
  // Algorithm 3, generateRandomSample.
  const double choice = rng().next_double();
  if (choice < estimator_.estimate()) {
    if (auto d = view_u_.random_entry(rng()); d.has_value()) return d;
    return view_v_.random_entry(rng());
  }
  if (auto d = view_v_.random_entry(rng()); d.has_value()) return d;
  return view_u_.random_entry(rng());
}

std::vector<net::NodeId> Croupier::out_neighbors() const {
  std::vector<net::NodeId> out;
  out.reserve(view_u_.size() + view_v_.size());
  for (const auto& d : view_u_.entries()) out.push_back(d.id);
  for (const auto& d : view_v_.entries()) out.push_back(d.id);
  return out;
}

std::vector<net::NodeId> Croupier::usable_neighbors(
    const AliveFn& alive) const {
  // Croupier descriptors carry no traversal state that can go stale: a
  // public-view edge works iff the target survives, and a private-view
  // edge stays meaningful iff the target survives, because a live private
  // node keeps re-anchoring itself through whatever croupiers remain (it
  // initiates all of its exchanges). Contrast Gozar/Nylon, where an edge
  // to a live private node dies with the relay/RVP state cached in the
  // descriptor — the asymmetry behind paper fig. 7b.
  std::vector<net::NodeId> out;
  for (const auto& d : view_u_.entries()) {
    if (alive(d.id)) out.push_back(d.id);
  }
  for (const auto& d : view_v_.entries()) {
    if (alive(d.id)) out.push_back(d.id);
  }
  return out;
}

}  // namespace croupier::core
