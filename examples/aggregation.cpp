// Decentralized aggregation on top of the PSS — the paper's §I cites
// gossip-based aggregation [2] as a canonical PSS consumer.
//
// Every node holds a local value (here: a synthetic temperature) and the
// network estimates the global average with push-pull averaging driven by
// Croupier samples. NAT-correct variant: a node can only *initiate* an
// exchange, and the exchange completes when the target is reachable (the
// simulated network enforces this). Private targets are reachable through
// mappings the PSS traffic keeps warm or not at all — so convergence
// leans on public nodes, yet remains correct because averaging preserves
// the global sum wherever the pairs happen to form.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "runtime/spec.hpp"
#include "runtime/world.hpp"

namespace {

using namespace croupier;

constexpr std::uint8_t kAvgPush = 0x90;
constexpr std::uint8_t kAvgPull = 0x91;

struct AvgPush final : net::Message {
  double value = 0;  // initiator's half of the pairwise average
  [[nodiscard]] std::uint8_t type() const override { return kAvgPush; }
  [[nodiscard]] const char* name() const override { return "agg.push"; }
  void encode(wire::Writer& w) const override {
    w.u8(type());
    w.u64(static_cast<std::uint64_t>(value * 1e6));
  }
};

struct AvgPull final : net::Message {
  double value = 0;  // responder's half
  [[nodiscard]] std::uint8_t type() const override { return kAvgPull; }
  [[nodiscard]] const char* name() const override { return "agg.pull"; }
  void encode(wire::Writer& w) const override {
    w.u8(type());
    w.u64(static_cast<std::uint64_t>(value * 1e6));
  }
};

class AveragingApp final : public net::MessageHandler {
 public:
  AveragingApp(run::World& world, net::NodeId self, double initial)
      : world_(world), self_(self), value_(initial) {}

  [[nodiscard]] double value() const { return value_; }

  void on_message(net::NodeId from, const net::Message& msg) override {
    switch (msg.type()) {
      case kAvgPush: {
        // Push-pull step (Jelasity et al. [2]): both sides move to the
        // pairwise mean; the sum over the network is invariant.
        const double theirs = static_cast<const AvgPush&>(msg).value;
        auto reply = std::make_shared<AvgPull>();
        reply->value = value_;
        value_ = (value_ + theirs) / 2.0;
        world_.network().send(self_, from, std::move(reply));
        break;
      }
      case kAvgPull: {
        const double theirs = static_cast<const AvgPull&>(msg).value;
        if (awaiting_pull_) {
          value_ = (value_ + theirs) / 2.0;
          awaiting_pull_ = false;
        }
        break;
      }
      default:
        break;
    }
  }

  void round() {
    auto* sampler = world_.sampler(self_);
    if (sampler == nullptr) return;
    const auto peer = sampler->sample();
    if (!peer.has_value()) return;
    auto push = std::make_shared<AvgPush>();
    push->value = value_;
    awaiting_pull_ = true;
    world_.network().send(self_, peer->id, std::move(push));
  }

 private:
  run::World& world_;
  net::NodeId self_;
  double value_;
  bool awaiting_pull_ = false;
};

}  // namespace

int main() {
  // 80 public + 320 private nodes, all present from the start; the
  // application drives its own clock below, so nothing is recorded.
  run::Experiment experiment({.protocol = "croupier", .nodes = 400,
                              .ratio = 0.2,
                              .join = run::ExperimentSpec::JoinKind::Instant,
                              .duration_s = 120,
                              .record = run::ExperimentSpec::RecordKind::None},
                             /*seed=*/5);
  run::World& world = experiment.world();
  world.simulator().run_until(sim::sec(30));  // PSS warm-up

  // Synthetic sensor readings: mean 20.0 with wide spread.
  sim::RngStream rng(99);
  std::unordered_map<net::NodeId, std::unique_ptr<AveragingApp>> apps;
  double true_sum = 0;
  for (net::NodeId id : world.alive_ids()) {
    const double reading = 20.0 + rng.normal(0.0, 8.0);
    true_sum += reading;
    auto app = std::make_unique<AveragingApp>(world, id, reading);
    world.set_app_handler(id, app.get());
    apps.emplace(id, std::move(app));
  }
  const double true_avg = true_sum / static_cast<double>(apps.size());
  std::printf("true average: %.4f over %zu nodes\n", true_avg, apps.size());

  std::printf("%6s %12s %14s\n", "round", "mean|err|", "max|err|");
  for (int round = 1; round <= 40; ++round) {
    for (const auto& [id, app] : apps) app->round();
    world.simulator().run_until(world.simulator().now() + sim::sec(1));
    if (round % 5 != 0) continue;
    double worst = 0;
    double sum = 0;
    for (const auto& [id, app] : apps) {
      const double err = std::abs(app->value() - true_avg);
      worst = std::max(worst, err);
      sum += err;
    }
    std::printf("%6d %12.5f %14.5f\n", round,
                sum / static_cast<double>(apps.size()), worst);
  }
  std::printf(
      "\npairwise averaging over PSS samples converges towards the global\n"
      "mean; exchanges blocked by NATs only slow it down, they cannot\n"
      "corrupt it (the pairwise step conserves the global sum).\n");
  return 0;
}
