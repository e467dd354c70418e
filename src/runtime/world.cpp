#include "runtime/world.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "net/latency.hpp"
#include "sim/conflict.hpp"

namespace croupier::run {

struct World::NodeRuntime final : net::MessageHandler {
  World* world = nullptr;
  net::NodeId id = net::kNilNode;
  net::NatConfig nat_cfg;
  net::NatType identified = net::NatType::Private;
  bool pss_started = false;
  std::uint64_t rounds = 0;
  double period_scale = 1.0;
  /// Bumped by reclassify(): pending round events from the previous
  /// protocol instance carry the old epoch and become no-ops, so a node
  /// never gossips on two round chains at once.
  std::uint32_t round_epoch = 0;
  sim::RngStream rng;  // per-node stream; forked for sub-components

  std::unique_ptr<natid::NatIdClient> natid_client;
  std::unique_ptr<natid::NatIdResponder> natid_responder;
  std::unique_ptr<pss::PeerSampler> pss;
  net::MessageHandler* app = nullptr;  // application layer (tags >= 0x80)

  void on_message(net::NodeId from, const net::Message& msg) override {
    if (natid::is_natid_message(msg.type())) {
      if (natid_client != nullptr && !natid_client->finished() &&
          natid_client->on_message(from, msg)) {
        return;
      }
      if (natid_responder != nullptr) {
        natid_responder->on_message(from, msg);
      }
      return;
    }
    if (msg.type() >= 0x80) {
      if (app != nullptr) app->on_message(from, msg);
      return;
    }
    if (pss != nullptr) pss->on_message(from, msg);
  }
};

World::World(Config cfg, ProtocolFactory factory)
    : cfg_(cfg),
      factory_(std::move(factory)),
      master_rng_(cfg.seed),
      scenario_rng_(master_rng_.fork(0xA11CE)),
      spawn_rng_(master_rng_.fork(0xB0B)) {
  CROUPIER_ASSERT(factory_ != nullptr);
  CROUPIER_ASSERT(cfg_.round_period > 0);
  CROUPIER_ASSERT(cfg_.clock_skew >= 0.0 && cfg_.clock_skew < 0.5);

  // One fork feeds whichever latency model is selected: the branches are
  // mutually exclusive, and hoisting keeps the tag single-sited (fork()
  // is const, so taking it unconditionally changes no byte of any run).
  const std::uint64_t latency_seed = master_rng_.fork(0x1A7).next_u64();
  std::unique_ptr<net::LatencyModel> latency;
  switch (cfg_.latency) {
    case LatencyKind::Constant:
      latency = std::make_unique<net::ConstantLatency>(cfg_.constant_latency);
      break;
    case LatencyKind::Coordinate:
      latency = std::make_unique<net::CoordinateLatencyModel>(latency_seed);
      break;
    case LatencyKind::King:
      latency = std::make_unique<net::KingLatencyModel>(latency_seed);
      break;
  }
  network_ = std::make_unique<net::Network>(
      sim_, std::move(latency), master_rng_.fork(0x2E7), cfg_.loss);
  network_->set_packet_config(cfg_.packet);

  // Protocol traffic (tags < 0x80, non-NAT-ID) only ever touches the
  // receiving node's own state, so those deliveries shard by receiver.
  // NAT-ID handlers mutate the shared bootstrap registry when a node
  // finishes identification, and application handlers (examples/) are
  // unaudited user code — both stay serial.
  network_->set_delivery_affinity(
      [](net::NodeId to, const net::Message& msg) {
        if (natid::is_natid_message(msg.type()) || msg.type() >= 0x80) {
          return sim::kSerialAffinity;
        }
        return static_cast<sim::Affinity>(to);
      });

  if (cfg_.world_jobs > 1) {
    // Lookahead = the shortest delay with which a batched event can
    // schedule a node-affine one: a network hop, a node's next round
    // (schedule_round's own arithmetic, so the floor is a true lower
    // bound) or, when messages fragment, the reassembly-GC arm.
    const auto shortest_round = static_cast<sim::Duration>(
        static_cast<double>(cfg_.round_period) *
        ((1.0 - cfg_.clock_skew) * std::min(1.0, cfg_.private_round_scale)));
    sim::Duration lookahead =
        std::min(network_->min_latency(), shortest_round);
    if (cfg_.packet.mtu > 0) {
      lookahead = std::min(lookahead, cfg_.packet.reassembly_timeout);
    }
    executor_ = std::make_unique<sim::ParallelExecutor>(
        sim_, sim::ParallelExecutor::Options{cfg_.world_jobs, lookahead});
  }
}

World::~World() = default;

net::NodeId World::spawn(const net::NatConfig& nat) {
  return spawn_impl(nat, /*skip_natid=*/false);
}

net::NodeId World::spawn_seeded(const net::NatConfig& nat) {
  return spawn_impl(nat, /*skip_natid=*/true);
}

net::NodeId World::spawn_impl(const net::NatConfig& nat, bool skip_natid) {
  sim::conflict::record_shared_write("World: spawn");
  const net::NodeId id = next_id_++;
  auto node = std::make_unique<NodeRuntime>();
  node->world = this;
  node->id = id;
  node->nat_cfg = nat;
  node->rng = spawn_rng_.fork(id);
  node->period_scale =
      1.0 + cfg_.clock_skew * (2.0 * node->rng.next_double() - 1.0);
  if (nat.nat_type() == net::NatType::Private) {
    node->period_scale *= cfg_.private_round_scale;
  }

  network_->attach(id, nat, *node);

  NodeRuntime& ref = *node;
  nodes_.emplace(id, std::move(node));
  alive_index_.emplace(id, alive_ids_.size());
  alive_ids_.push_back(id);
  if (nat.nat_type() == net::NatType::Public) ++public_count_;

  if (!cfg_.use_natid_protocol || skip_natid) {
    ref.identified = nat.nat_type();
    start_pss(ref);
    return id;
  }

  start_natid(ref);
  return id;
}

namespace {

// Sub-component RNG fork tags. Epoch 0 keeps the historic small tags so
// every pre-reclassify run stays byte-identical; later epochs shift the
// base out of the low tag range, which no other fork uses.
std::uint64_t epoch_tag(std::uint64_t base, std::uint32_t epoch) {
  return epoch == 0 ? base : (base << 16) + epoch;
}

}  // namespace

void World::start_natid(NodeRuntime& node) {
  // Run the distributed identification first; gossip starts when it
  // completes. The callback never outlives the node: kill() destroys the
  // client, whose destructor disarms the pending timeout.
  const net::NodeId id = node.id;
  natid::NatIdClient::Config nid_cfg;
  nid_cfg.timeout = cfg_.natid_timeout;
  nid_cfg.upnp_available =
      node.nat_cfg.cls == net::ConnectivityClass::UpnpIgd;
  node.natid_client = std::make_unique<natid::NatIdClient>(
      id, *network_, bootstrap_,
      node.rng.fork(epoch_tag(0x71D, node.round_epoch)), nid_cfg,
      [this, id](net::NatType type) {
        const auto it = nodes_.find(id);
        if (it == nodes_.end()) return;
        it->second->identified = type;
        start_pss(*it->second);
      });
  node.natid_client->start();
}

void World::start_pss(NodeRuntime& node) {
  CROUPIER_ASSERT(!node.pss_started);
  node.pss_started = true;

  // Public nodes serve the NAT-ID protocol for future joiners.
  if (node.identified == net::NatType::Public) {
    node.natid_responder = std::make_unique<natid::NatIdResponder>(
        node.id, *network_, bootstrap_,
        node.rng.fork(epoch_tag(0x4E5, node.round_epoch)));
  }

  pss::PeerSampler::Context ctx;
  ctx.self = node.id;
  ctx.nat_type = node.identified;
  ctx.network = network_.get();
  ctx.bootstrap = &bootstrap_;
  ctx.rng = node.rng.fork(epoch_tag(0x955, node.round_epoch));
  ctx.arena = &view_arena_;
  node.pss = factory_(std::move(ctx));
  CROUPIER_ASSERT(node.pss != nullptr);
  ++gossiping_count_;

  bootstrap_.add(node.id, node.identified);
  node.pss->init();

  // First round fires at a random phase inside one period; the node then
  // gossips with its own (slightly skewed) period.
  const auto phase = static_cast<sim::Duration>(
      node.rng.next_double() * static_cast<double>(cfg_.round_period));
  const net::NodeId id = node.id;
  const std::uint32_t epoch = node.round_epoch;
  sim_.schedule_after(phase, static_cast<sim::Affinity>(id),
                      [this, id, epoch] { schedule_round(id, epoch); });
}

void World::schedule_round(net::NodeId id, std::uint32_t epoch) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return;  // died while the event was pending
  NodeRuntime& node = *it->second;
  if (node.pss == nullptr || node.round_epoch != epoch) return;

  sim::conflict::record_write(id, "World: per-node runtime (round)");
  node.pss->round();
  ++node.rounds;

  const auto period = static_cast<sim::Duration>(
      static_cast<double>(cfg_.round_period) * node.period_scale);
  sim_.schedule_after(period, static_cast<sim::Affinity>(id),
                      [this, id, epoch] { schedule_round(id, epoch); });
}

void World::reclassify(net::NodeId id, const net::NatConfig& nat) {
  sim::conflict::record_shared_write("World: reclassify");
  const auto it = nodes_.find(id);
  CROUPIER_ASSERT_MSG(it != nodes_.end(), "reclassify of dead node");
  NodeRuntime& node = *it->second;

  if (node.nat_cfg.nat_type() == net::NatType::Public) {
    CROUPIER_ASSERT(public_count_ > 0);
    --public_count_;
  }
  if (nat.nat_type() == net::NatType::Public) ++public_count_;
  node.nat_cfg = nat;
  network_->reclassify(id, nat);

  // Tear down the old identity: the orphaned round chain dies on the
  // epoch check, in-flight responses to the old instance are dropped by
  // NodeRuntime's null check.
  ++node.round_epoch;
  if (node.pss != nullptr) {
    CROUPIER_ASSERT(gossiping_count_ > 0);
    --gossiping_count_;
    node.pss.reset();
  }
  node.natid_client.reset();
  node.natid_responder.reset();
  node.pss_started = false;
  node.rounds = 0;
  if (bootstrap_.known(id)) bootstrap_.remove(id);

  // Re-join through the same path spawn uses.
  if (!cfg_.use_natid_protocol) {
    node.identified = nat.nat_type();
    start_pss(node);
  } else {
    start_natid(node);
  }
}

void World::kill(net::NodeId id) {
  sim::conflict::record_shared_write("World: kill");
  const auto it = nodes_.find(id);
  CROUPIER_ASSERT_MSG(it != nodes_.end(), "kill of dead node");

  ++kill_count_;
  if (it->second->pss != nullptr) {
    CROUPIER_ASSERT(gossiping_count_ > 0);
    --gossiping_count_;
  }
  if (it->second->nat_cfg.nat_type() == net::NatType::Public) {
    CROUPIER_ASSERT(public_count_ > 0);
    --public_count_;
  }
  network_->detach(id);
  if (bootstrap_.known(id)) bootstrap_.remove(id);

  // Swap-remove from the dense alive list.
  const std::size_t pos = alive_index_.at(id);
  const net::NodeId last = alive_ids_.back();
  alive_ids_[pos] = last;
  alive_index_[last] = pos;
  alive_ids_.pop_back();
  alive_index_.erase(id);

  nodes_.erase(it);
}

std::size_t World::count(net::NatType type) const {
  return type == net::NatType::Public ? public_count_
                                      : nodes_.size() - public_count_;
}

double World::true_ratio() const {
  if (nodes_.empty()) return 0.0;
  return static_cast<double>(public_count_) /
         static_cast<double>(nodes_.size());
}

pss::PeerSampler* World::sampler(net::NodeId id) {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second->pss.get();
}

const pss::PeerSampler* World::sampler(net::NodeId id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second->pss.get();
}

net::NatType World::type_of(net::NodeId id) const {
  const auto it = nodes_.find(id);
  CROUPIER_ASSERT(it != nodes_.end());
  return it->second->nat_cfg.nat_type();
}

const net::NatConfig& World::nat_config_of(net::NodeId id) const {
  const auto it = nodes_.find(id);
  CROUPIER_ASSERT(it != nodes_.end());
  return it->second->nat_cfg;
}

net::NatType World::identified_type_of(net::NodeId id) const {
  const auto it = nodes_.find(id);
  CROUPIER_ASSERT(it != nodes_.end());
  return it->second->identified;
}

std::uint64_t World::rounds_of(net::NodeId id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second->rounds;
}

std::vector<net::NodeId> World::sorted_ids() const {
  std::vector<net::NodeId> ids = alive_ids_;
  std::sort(ids.begin(), ids.end());
  return ids;
}

void World::for_each_sampler(
    const std::function<void(net::NodeId, pss::PeerSampler&)>& fn) const {
  for (const net::NodeId id : sorted_ids()) {
    const auto& node = nodes_.at(id);
    if (node->pss != nullptr) fn(id, *node->pss);
  }
}

metrics::OverlayGraph World::snapshot_overlay(bool usable_only) const {
  std::vector<std::pair<net::NodeId, std::vector<net::NodeId>>> adjacency;
  adjacency.reserve(nodes_.size());
  const auto alive_fn = [this](net::NodeId id) { return alive(id); };
  for (const net::NodeId id : sorted_ids()) {
    const auto& node = nodes_.at(id);
    if (node->pss == nullptr) continue;
    adjacency.emplace_back(id, usable_only
                                   ? node->pss->usable_neighbors(alive_fn)
                                   : node->pss->out_neighbors());
  }
  return metrics::OverlayGraph::build(adjacency);
}

std::vector<std::pair<net::NodeId, net::NatType>> World::class_map() const {
  std::vector<std::pair<net::NodeId, net::NatType>> out;
  out.reserve(nodes_.size());
  for (const net::NodeId id : sorted_ids()) {
    const auto& node = nodes_.at(id);
    if (node->pss != nullptr) out.emplace_back(id, node->nat_cfg.nat_type());
  }
  return out;
}

void World::set_app_handler(net::NodeId id, net::MessageHandler* handler) {
  const auto it = nodes_.find(id);
  CROUPIER_ASSERT_MSG(it != nodes_.end(), "app handler for dead node");
  it->second->app = handler;
}

std::vector<double> World::ratio_estimates(std::uint64_t min_rounds) const {
  std::vector<double> out;
  for (const net::NodeId id : sorted_ids()) {
    const auto& node = nodes_.at(id);
    if (node->pss == nullptr || node->rounds < min_rounds) continue;
    if (const auto est = node->pss->ratio_estimate(); est.has_value()) {
      out.push_back(*est);
    }
  }
  return out;
}

}  // namespace croupier::run
