#include "baselines/nylon.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.hpp"

namespace croupier::baselines {

RoundTable::RoundTable(std::size_t capacity) : capacity_(capacity) {
  CROUPIER_ASSERT_MSG(capacity_ >= 1, "a round table needs room for one entry");
}

namespace {

/// First entry whose id is not below `id`, on a const or mutable table.
template <typename Entries>
auto lower_bound_id(Entries& entries, net::NodeId id) {
  return std::lower_bound(
      entries.begin(), entries.end(), id,
      [](const RoundTable::Entry& e, net::NodeId key) { return e.id < key; });
}

}  // namespace

const RoundTable::Entry* RoundTable::find_live(net::NodeId id,
                                               std::uint64_t now,
                                               std::size_t ttl) const {
  const auto it = lower_bound_id(entries_, id);
  if (it == entries_.end() || it->id != id || now - it->round > ttl) {
    return nullptr;
  }
  return &*it;
}

void RoundTable::refresh(net::NodeId id, std::uint64_t round) {
  const auto it = lower_bound_id(entries_, id);
  if (it != entries_.end() && it->id == id) it->round = round;
}

void RoundTable::touch(net::NodeId id, std::uint64_t round,
                       net::NodeId next_hop) {
  const auto pos = lower_bound_id(entries_, id);
  if (pos != entries_.end() && pos->id == id) {
    *pos = Entry{id, next_hop, round};
    return;
  }
  if (entries_.size() < capacity_) {
    entries_.insert(pos, Entry{id, next_hop, round});
    return;
  }
  // Full: the victim's slot is reused by shifting the entries between it
  // and the insertion point one place toward it.
  const auto victim = std::min_element(
      entries_.begin(), entries_.end(),
      [](const Entry& a, const Entry& b) { return a.round < b.round; });
  if (victim < pos) {
    std::move(victim + 1, pos, victim);
    *(pos - 1) = Entry{id, next_hop, round};
  } else {
    std::move_backward(pos, victim, victim + 1);
    *pos = Entry{id, next_hop, round};
  }
}

void RoundTable::expire(std::uint64_t now, std::size_t ttl) {
  std::erase_if(entries_,
                [&](const Entry& e) { return now - e.round > ttl; });
}

Nylon::Nylon(Context ctx, NylonConfig cfg)
    : PeerSampler(std::move(ctx)),
      cfg_(cfg),
      view_(cfg.base.view_size, ctx_.arena),
      rvp_links_(cfg.max_rvp_links),
      routing_(cfg.routing_table_size) {
  CROUPIER_ASSERT(cfg_.base.shuffle_size > 0 &&
                  cfg_.base.shuffle_size <= cfg_.base.view_size);
  CROUPIER_ASSERT(cfg_.keepalive_rounds > 0);
  CROUPIER_ASSERT(cfg_.rvp_ttl_rounds >= cfg_.keepalive_rounds);
  view_.set_owner(self());
}

void Nylon::init() {
  const auto seeds =
      bootstrap().sample_public(cfg_.base.bootstrap_fanout, self(), rng());
  for (net::NodeId id : seeds) {
    view_.force_add(NylonDescriptor{id, net::NatType::Public, 0, id});
  }
}

void Nylon::touch_rvp(net::NodeId peer) {
  if (peer == self()) return;
  rvp_links_.touch(peer, round_counter_);
}

bool Nylon::rvp_live(net::NodeId peer) const {
  return rvp_links_.find_live(peer, round_counter_, cfg_.rvp_ttl_rounds) !=
         nullptr;
}

void Nylon::learn_route(net::NodeId target, net::NodeId next_hop) {
  if (target == self() || next_hop == self()) return;
  routing_.touch(target, round_counter_, next_hop);
}

net::NodeId Nylon::route_to(net::NodeId target) const {
  const auto* route =
      routing_.find_live(target, round_counter_, cfg_.routing_ttl_rounds);
  return route == nullptr ? net::kNilNode : route->next_hop;
}

void Nylon::keepalives() {
  // Expire stale links, then refresh the survivors' NAT mappings, in
  // ascending id order. Every keepalive is a real packet both here and at
  // the receiving end: the RVP machinery is what makes Nylon expensive
  // (paper fig. 7a).
  rvp_links_.expire(round_counter_, cfg_.rvp_ttl_rounds);
  if (round_counter_ % cfg_.keepalive_rounds != 0) return;
  for (const auto& link : rvp_links_) {
    network().send(self(), link.id, std::make_shared<NylonKeepalive>());
  }
}

void Nylon::round() {
  ++round_counter_;
  view_.age_all();
  keepalives();

  const auto target = view_.oldest();
  if (!target.has_value()) {
    init();
    return;
  }
  view_.remove(target->id);

  NylonShuffleReq req;
  req.sender = NylonDescriptor{self(), nat_type(), 0, self()};
  req.entries = view_.random_subset(cfg_.base.shuffle_size - 1, rng());

  pending_.push(target->id, req.entries);

  send_shuffle(*target, std::move(req));
}

void Nylon::send_shuffle(const NylonDescriptor& target, NylonShuffleReq req) {
  // Direct delivery works if the target is public, or if we hold a live
  // RVP link with it (mutual keepalives keep both NATs open).
  if (target.nat_type == net::NatType::Public || rvp_live(target.id)) {
    network().send(self(), target.id,
                   std::make_shared<NylonShuffleReq>(std::move(req)));
    return;
  }

  // Private target without a live link: UDP hole punch through the RVP
  // chain — preferring fresh routing state, falling back to the neighbour
  // the descriptor came from.
  net::NodeId first_hop = route_to(target.id);
  if (first_hop == net::kNilNode) first_hop = target.learned_from;
  if (first_hop == net::kNilNode || first_hop == self()) {
    return;  // no chain to follow: the exchange fails this round
  }
  ++punches_started_;

  // Probe opens our own NAT toward the target (simultaneous open); the
  // packet itself is filtered at the target's gateway.
  network().send(self(), target.id, std::make_shared<NylonProbe>());

  auto punch = std::make_shared<NylonPunchReq>();
  punch->initiator = self();
  punch->initiator_type = nat_type();
  punch->target = target.id;
  punch->hops = 0;
  network().send(self(), first_hop, std::move(punch));

  if (awaiting_punch_.size() == 8) {
    awaiting_punch_.erase(awaiting_punch_.begin());
  }
  awaiting_punch_.push_back(AwaitingPunch{target.id, std::move(req)});
}

void Nylon::on_message(net::NodeId from, const net::Message& msg) {
  switch (msg.type()) {
    case kNylonShuffleReq:
      handle_request(from, static_cast<const NylonShuffleReq&>(msg));
      break;
    case kNylonShuffleRes:
      handle_response(from, static_cast<const NylonShuffleRes&>(msg));
      break;
    case kNylonPunchReq:
      handle_punch_req(from, static_cast<const NylonPunchReq&>(msg));
      break;
    case kNylonConnect: {
      const auto& c = static_cast<const NylonConnect&>(msg);
      // Punch back: this outbound packet opens our NAT toward the
      // initiator; it reaches them because their probe opened theirs.
      network().send(self(), c.initiator, std::make_shared<NylonPunchOpen>());
      break;
    }
    case kNylonPunchOpen: {
      // The target's NAT is now open for us: fire the prepared shuffle.
      for (auto it = awaiting_punch_.begin(); it != awaiting_punch_.end();
           ++it) {
        if (it->target == from) {
          ++punches_completed_;
          NylonShuffleReq req = std::move(it->req);
          awaiting_punch_.erase(it);
          network().send(self(), from,
                         std::make_shared<NylonShuffleReq>(std::move(req)));
          break;
        }
      }
      break;
    }
    case kNylonProbe:
    case kNylonKeepalive: {
      // Refresh our side of the link if we track this peer.
      rvp_links_.refresh(from, round_counter_);
      break;
    }
    default:
      break;
  }
}

void Nylon::handle_punch_req(net::NodeId from, const NylonPunchReq& punch) {
  (void)from;
  if (punch.hops >= cfg_.max_punch_hops) return;
  if (punch.target == self()) {
    // Degenerate chain end: we are the target.
    network().send(self(), punch.initiator,
                   std::make_shared<NylonPunchOpen>());
    return;
  }
  if (rvp_live(punch.target)) {
    // Our mutual keepalives hold the target's NAT open for us: deliver the
    // connect request on the last hop.
    auto connect = std::make_shared<NylonConnect>();
    connect->initiator = punch.initiator;
    network().send(self(), punch.target, std::move(connect));
    return;
  }
  // Otherwise forward along our own chain toward the target: routing
  // state first, then the live view as a fallback.
  net::NodeId next = route_to(punch.target);
  if (next == net::kNilNode || next == from) {
    const auto desc = view_.find(punch.target);
    if (desc.has_value()) next = desc->learned_from;
  }
  if (next == net::kNilNode || next == self() || next == from) {
    return;  // chain broken: the exchange fails
  }
  auto fwd = std::make_shared<NylonPunchReq>(punch);
  fwd->hops = static_cast<std::uint8_t>(punch.hops + 1);
  network().send(self(), next, std::move(fwd));
}

void Nylon::handle_request(net::NodeId from, const NylonShuffleReq& req) {
  NylonShuffleRes res;
  res.entries = view_.random_subset_excluding(cfg_.base.shuffle_size,
                                              req.sender.id, rng());

  std::vector<NylonDescriptor> incoming = req.entries;
  incoming.push_back(req.sender);
  // Every received descriptor's chain next-hop is the node that sent it;
  // the routing table remembers this even after the view entry moves on.
  for (auto& d : incoming) {
    d.learned_from = req.sender.id;
    learn_route(d.id, req.sender.id);
  }
  view_.merge_swapper(res.entries, incoming, self());

  // A completed exchange makes the two endpoints each other's RVPs.
  touch_rvp(req.sender.id);

  network().send(self(), from,
                 std::make_shared<NylonShuffleRes>(std::move(res)));
}

void Nylon::handle_response(net::NodeId from, const NylonShuffleRes& res) {
  const auto sent = pending_.take(from);
  std::vector<NylonDescriptor> incoming = res.entries;
  for (auto& d : incoming) {
    d.learned_from = from;
    learn_route(d.id, from);
  }
  view_.merge_swapper(sent, incoming, self());
  touch_rvp(from);
}

std::optional<pss::NodeDescriptor> Nylon::sample() {
  const auto d = view_.random_entry(rng());
  if (!d.has_value()) return std::nullopt;
  return pss::NodeDescriptor{d->id, d->nat_type, d->age};
}

std::vector<net::NodeId> Nylon::out_neighbors() const {
  std::vector<net::NodeId> out;
  out.reserve(view_.size());
  for (const auto& d : view_.entries()) out.push_back(d.id);
  return out;
}

std::vector<net::NodeId> Nylon::usable_neighbors(const AliveFn& alive) const {
  std::vector<net::NodeId> out;
  for (const auto& d : view_.entries()) {
    if (!alive(d.id)) continue;
    if (d.nat_type == net::NatType::Public) {
      out.push_back(d.id);
      continue;
    }
    // Private neighbour: reachable only if the chain's first hop is still
    // alive (either we hold a live RVP link ourselves, or the node we
    // learned the descriptor from survives to forward the punch).
    if (rvp_live(d.id) ||
        (d.learned_from != net::kNilNode && alive(d.learned_from))) {
      out.push_back(d.id);
    }
  }
  return out;
}

}  // namespace croupier::baselines
