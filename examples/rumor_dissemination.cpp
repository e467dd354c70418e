// Gossip dissemination on top of the PSS — the paper's motivating use
// case (§I cites lightweight probabilistic broadcast [1]).
//
// An application layers its own messages over the same simulated network
// (via World::set_app_handler) and uses Croupier's sample() to pick
// gossip partners:
//  - push: an infected node pushes the rumor to `fanout` sampled peers
//    each round. Pushes to private peers are dropped by their NATs unless
//    a mapping happens to be open — exactly what a real deployment sees.
//  - pull: every node polls one sampled peer per round; an infected
//    public peer answers with the rumor. This is how NATted nodes catch
//    up despite being unreachable for pushes.
//
// Prints rumor coverage over time on a 500-node, 80%-private network.
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "core/croupier.hpp"
#include "runtime/spec.hpp"
#include "runtime/world.hpp"

namespace {

using namespace croupier;

constexpr std::uint8_t kRumorPush = 0x80;
constexpr std::uint8_t kRumorPullReq = 0x81;
constexpr std::uint8_t kRumorPullRes = 0x82;

struct RumorPush final : net::Message {
  std::uint32_t rumor_id = 0;
  [[nodiscard]] std::uint8_t type() const override { return kRumorPush; }
  [[nodiscard]] const char* name() const override { return "app.push"; }
  void encode(wire::Writer& w) const override {
    w.u8(type());
    w.u32(rumor_id);
  }
};

struct RumorPullReq final : net::Message {
  [[nodiscard]] std::uint8_t type() const override { return kRumorPullReq; }
  [[nodiscard]] const char* name() const override { return "app.pull_req"; }
  void encode(wire::Writer& w) const override { w.u8(type()); }
};

struct RumorPullRes final : net::Message {
  std::uint32_t rumor_id = 0;
  [[nodiscard]] std::uint8_t type() const override { return kRumorPullRes; }
  [[nodiscard]] const char* name() const override { return "app.pull_res"; }
  void encode(wire::Writer& w) const override {
    w.u8(type());
    w.u32(rumor_id);
  }
};

// Application state for one node: rumor possession + gossip behaviour.
class RumorApp final : public net::MessageHandler {
 public:
  RumorApp(run::World& world, net::NodeId self)
      : world_(world), self_(self) {}

  void infect() { infected_ = true; }
  [[nodiscard]] bool infected() const { return infected_; }

  void on_message(net::NodeId from, const net::Message& msg) override {
    switch (msg.type()) {
      case kRumorPush:
        infected_ = true;
        break;
      case kRumorPullReq:
        if (infected_) {
          world_.network().send(self_, from,
                                std::make_shared<RumorPullRes>());
        }
        break;
      case kRumorPullRes:
        infected_ = true;
        break;
      default:
        break;
    }
  }

  // One application gossip round, driven off the PSS samples.
  void round(std::size_t push_fanout) {
    auto* sampler = world_.sampler(self_);
    if (sampler == nullptr) return;
    if (infected_) {
      for (std::size_t i = 0; i < push_fanout; ++i) {
        if (const auto peer = sampler->sample(); peer.has_value()) {
          world_.network().send(self_, peer->id,
                                std::make_shared<RumorPush>());
        }
      }
    }
    // Pull regardless of state (cheap anti-entropy).
    if (const auto peer = sampler->sample(); peer.has_value()) {
      world_.network().send(self_, peer->id,
                            std::make_shared<RumorPullReq>());
    }
  }

 private:
  run::World& world_;
  net::NodeId self_;
  bool infected_ = false;
};

}  // namespace

int main() {
  const std::size_t publics = 100;
  const std::size_t privates = 400;
  run::Experiment experiment({.protocol = "croupier",
                              .nodes = publics + privates, .ratio = 0.2,
                              .join = run::ExperimentSpec::JoinKind::Instant,
                              .duration_s = 90,
                              .record = run::ExperimentSpec::RecordKind::None},
                             /*seed=*/11);
  run::World& world = experiment.world();

  // Let the PSS warm up before the application starts.
  world.simulator().run_until(sim::sec(30));

  std::unordered_map<net::NodeId, std::unique_ptr<RumorApp>> apps;
  for (net::NodeId id : world.alive_ids()) {
    auto app = std::make_unique<RumorApp>(world, id);
    world.set_app_handler(id, app.get());
    apps.emplace(id, std::move(app));
  }

  // Patient zero: one private node learns the rumor.
  for (net::NodeId id : world.alive_ids()) {
    if (world.type_of(id) == net::NatType::Private) {
      apps.at(id)->infect();
      std::printf("rumor injected at private node %u\n", id);
      break;
    }
  }

  // Drive app rounds once per second for a minute; report coverage.
  std::printf("%6s %10s %12s %12s\n", "t(s)", "coverage", "public-cov",
              "private-cov");
  for (int t = 0; t <= 30; ++t) {
    std::size_t infected = 0;
    std::size_t inf_pub = 0;
    std::size_t inf_priv = 0;
    for (const auto& [id, app] : apps) {
      if (!app->infected()) continue;
      ++infected;
      (world.type_of(id) == net::NatType::Public ? inf_pub : inf_priv) += 1;
    }
    if (t % 3 == 0 || infected == apps.size()) {
      std::printf("%6d %9.1f%% %11.1f%% %11.1f%%\n", t,
                  100.0 * static_cast<double>(infected) /
                      static_cast<double>(apps.size()),
                  100.0 * static_cast<double>(inf_pub) /
                      static_cast<double>(publics),
                  100.0 * static_cast<double>(inf_priv) /
                      static_cast<double>(privates));
    }
    if (infected == apps.size()) {
      std::printf("full coverage after %d app rounds\n", t);
      break;
    }
    for (const auto& [id, app] : apps) {
      app->round(/*push_fanout=*/2);
    }
    world.simulator().run_until(world.simulator().now() + sim::sec(1));
  }
  return 0;
}
