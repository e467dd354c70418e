#include "baselines/gozar.hpp"

#include <algorithm>
#include <memory>

#include "common/assert.hpp"

namespace croupier::baselines {

Gozar::Gozar(Context ctx, GozarConfig cfg)
    : PeerSampler(std::move(ctx)), cfg_(cfg), view_(cfg.base.view_size, ctx_.arena) {
  CROUPIER_ASSERT(cfg_.num_parents > 0);
  CROUPIER_ASSERT(cfg_.base.shuffle_size > 0 &&
                  cfg_.base.shuffle_size <= cfg_.base.view_size);
  view_.set_owner(self());
}

GozarDescriptor Gozar::self_descriptor() const {
  GozarDescriptor d;
  d.id = self();
  d.nat_type = nat_type();
  d.age = 0;
  if (nat_type() == net::NatType::Private) {
    d.parents.reserve(parents_.size());
    for (const auto& p : parents_) d.parents.push_back(p.id);
  }
  return d;
}

void Gozar::init() {
  const auto seeds =
      bootstrap().sample_public(cfg_.base.bootstrap_fanout, self(), rng());
  for (net::NodeId id : seeds) {
    view_.force_add(GozarDescriptor{id, net::NatType::Public, 0, {}});
  }
  if (nat_type() == net::NatType::Private) {
    // Adopt initial parents from the bootstrap set and open NAT mappings
    // toward them right away.
    for (net::NodeId id : seeds) {
      if (parents_.size() >= cfg_.num_parents) break;
      parents_.push_back(Parent{id, round_counter_});
      network().send(self(), id, std::make_shared<GozarPing>());
    }
  }
}

void Gozar::maintain_parents() {
  if (nat_type() != net::NatType::Private) return;

  // Drop parents that have been silent too long.
  std::erase_if(parents_, [this](const Parent& p) {
    return round_counter_ - p.last_pong_round > cfg_.parent_timeout_rounds;
  });

  // Re-fill from the public nodes currently in the view.
  if (parents_.size() < cfg_.num_parents) {
    for (const auto& d : view_.entries()) {
      if (parents_.size() >= cfg_.num_parents) break;
      if (d.nat_type != net::NatType::Public) continue;
      const bool already =
          std::any_of(parents_.begin(), parents_.end(),
                      [&](const Parent& p) { return p.id == d.id; });
      if (already) continue;
      parents_.push_back(Parent{d.id, round_counter_});
      network().send(self(), d.id, std::make_shared<GozarPing>());
    }
  }

  // Periodic keepalive: holds the NAT mapping open and probes liveness.
  if (round_counter_ % cfg_.keepalive_rounds == 0) {
    for (const auto& p : parents_) {
      network().send(self(), p.id, std::make_shared<GozarPing>());
    }
  }
}

void Gozar::round() {
  ++round_counter_;
  view_.age_all();
  maintain_parents();

  const auto target = view_.oldest();
  if (!target.has_value()) {
    init();
    return;
  }
  view_.remove(target->id);

  GozarShuffleReq req;
  req.sender = self_descriptor();
  req.nonce = next_nonce_++;
  req.entries = view_.random_subset(cfg_.base.shuffle_size - 1, rng());

  pending_.push(target->id, req.entries);

  if (target->nat_type == net::NatType::Public) {
    network().send(self(), target->id,
                   std::make_shared<GozarShuffleReq>(std::move(req)));
    return;
  }

  // Private target: one-hop relay through parents cached in the
  // descriptor, redundantly through up to `relay_redundancy` of them
  // (the target answers one copy). A fully stale parent list means the
  // exchange fails — Gozar's fragility under failure (paper fig. 7b).
  if (target->parents.empty()) return;
  const auto relays = rng().sample(
      std::span<const net::NodeId>(target->parents), cfg_.relay_redundancy);
  for (net::NodeId relay : relays) {
    auto relayed = std::make_shared<GozarRelayedReq>();
    relayed->final_target = target->id;
    relayed->inner = req;
    network().send(self(), relay, std::move(relayed));
  }
}

void Gozar::on_message(net::NodeId from, const net::Message& msg) {
  switch (msg.type()) {
    case kGozarShuffleReq:
      handle_request(from, static_cast<const GozarShuffleReq&>(msg));
      break;
    case kGozarShuffleRes:
      handle_response(static_cast<const GozarShuffleRes&>(msg));
      break;
    case kGozarRelayedReq: {
      // We are the relay: forward the inner request one hop to our child.
      const auto& rel = static_cast<const GozarRelayedReq&>(msg);
      network().send(self(), rel.final_target,
                     std::make_shared<GozarShuffleReq>(rel.inner));
      break;
    }
    case kGozarRelayedRes: {
      // We are the relay on the response path (private initiator).
      const auto& rel = static_cast<const GozarRelayedRes&>(msg);
      network().send(self(), rel.final_target,
                     std::make_shared<GozarShuffleRes>(rel.inner));
      break;
    }
    case kGozarPing:
      network().send(self(), from, std::make_shared<GozarPong>());
      break;
    case kGozarPong: {
      for (auto& p : parents_) {
        if (p.id == from) p.last_pong_round = round_counter_;
      }
      break;
    }
    default:
      break;
  }
}

void Gozar::handle_request(net::NodeId physical_from,
                           const GozarShuffleReq& req) {
  // Drop redundant relay copies of an exchange we already served.
  const auto key = std::make_pair(req.sender.id, req.nonce);
  if (std::find(seen_exchanges_.begin(), seen_exchanges_.end(), key) !=
      seen_exchanges_.end()) {
    return;
  }
  if (seen_exchanges_.size() == 32) {
    seen_exchanges_.erase(seen_exchanges_.begin());
  }
  seen_exchanges_.push_back(key);

  GozarShuffleRes res;
  res.responder = self();
  res.entries =
      view_.random_subset_excluding(cfg_.base.shuffle_size, req.sender.id, rng());

  std::vector<GozarDescriptor> incoming = req.entries;
  incoming.push_back(req.sender);
  view_.merge_swapper(res.entries, incoming, self());

  if (req.sender.nat_type == net::NatType::Public) {
    network().send(self(), req.sender.id,
                   std::make_shared<GozarShuffleRes>(std::move(res)));
  } else if (physical_from != req.sender.id) {
    // Came through a relay; the same relay carries the response back (our
    // NAT mapping toward it is open because we ping it, and the
    // initiator's mapping is open because it sent the relayed request).
    auto rel = std::make_shared<GozarRelayedRes>();
    rel->final_target = req.sender.id;
    rel->inner = std::move(res);
    network().send(self(), physical_from, std::move(rel));
  } else {
    // Private sender that reached us directly (it holds a mapping toward
    // us from an earlier exchange); answer directly.
    network().send(self(), req.sender.id,
                   std::make_shared<GozarShuffleRes>(std::move(res)));
  }
}

void Gozar::handle_response(const GozarShuffleRes& res) {
  const auto sent = pending_.take(res.responder);
  view_.merge_swapper(sent, res.entries, self());
}

std::optional<pss::NodeDescriptor> Gozar::sample() {
  const auto d = view_.random_entry(rng());
  if (!d.has_value()) return std::nullopt;
  return pss::NodeDescriptor{d->id, d->nat_type, d->age};
}

std::vector<net::NodeId> Gozar::out_neighbors() const {
  std::vector<net::NodeId> out;
  out.reserve(view_.size());
  for (const auto& d : view_.entries()) out.push_back(d.id);
  return out;
}

std::vector<net::NodeId> Gozar::usable_neighbors(const AliveFn& alive) const {
  std::vector<net::NodeId> out;
  for (const auto& d : view_.entries()) {
    if (!alive(d.id)) continue;
    if (d.nat_type == net::NatType::Public) {
      out.push_back(d.id);
      continue;
    }
    // A private neighbour is reachable only through one of the relay
    // parents cached in our copy of its descriptor.
    const bool relay_alive = std::any_of(
        d.parents.begin(), d.parents.end(),
        [&](net::NodeId p) { return alive(p); });
    if (relay_alive) out.push_back(d.id);
  }
  return out;
}

std::vector<net::NodeId> Gozar::parents() const {
  std::vector<net::NodeId> out;
  out.reserve(parents_.size());
  for (const auto& p : parents_) out.push_back(p.id);
  return out;
}

}  // namespace croupier::baselines
