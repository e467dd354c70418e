// The dynamic half of the affinity-safety story (CROUPIER_CONFLICT_CHECK
// builds): instrumented engine-equivalence runs prove the recording
// hooks are live and silent on correct code, and deliberately broken
// handlers prove a cross-shard write and a batched write to shared state
// actually abort.
//
// A message whose decoder disagrees with its encoder aborts the send
// that carries it: checked builds round-trip every message on the wire.
//
// Only compiled when the option is ON (tests/CMakeLists.txt gates the
// target), so the file may assume the instrumentation exists.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "pss/descriptor.hpp"
#include "pss/view.hpp"
#include "runtime/spec.hpp"
#include "sim/conflict.hpp"
#include "sim/parallel_executor.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "wire/wire.hpp"

namespace croupier {
namespace {

using run::ExperimentSpec;

static_assert(sim::conflict::enabled(),
              "conflict_check_test requires -DCROUPIER_CONFLICT_CHECK=ON");

/// Runs one spec under both engines and requires identical drop counters
/// and event counts — the instrumented build must not change behavior,
/// and the parallel leg must actually validate writes (checked_writes
/// grows only inside batches, so a nonzero delta proves the hooks fired
/// on worker-executed events rather than being compiled out or bypassed).
void expect_instrumented_equivalence(const ExperimentSpec& spec,
                                     std::uint64_t seed) {
  run::Experiment sequential(spec, seed, /*world_jobs=*/1);
  sequential.run();
  const auto seq_drops = sequential.world().network().drops();
  const std::uint64_t seq_events =
      sequential.world().simulator().events_processed();

  const std::uint64_t before = sim::conflict::checked_writes();
  run::Experiment parallel(spec, seed, /*world_jobs=*/2);
  parallel.run();
  const std::uint64_t after = sim::conflict::checked_writes();
  EXPECT_GT(after, before)
      << "no write was validated inside any parallel batch — the "
         "instrumentation is dead";

  const auto par_drops = parallel.world().network().drops();
  EXPECT_EQ(seq_drops.delivered, par_drops.delivered);
  EXPECT_EQ(seq_drops.loss, par_drops.loss);
  EXPECT_EQ(seq_drops.nat_filtered, par_drops.nat_filtered);
  EXPECT_EQ(seq_drops.dead_receiver, par_drops.dead_receiver);
  EXPECT_EQ(seq_drops.delivered_bytes, par_drops.delivered_bytes);
  EXPECT_EQ(seq_events, parallel.world().simulator().events_processed());
  EXPECT_EQ(sequential.world().alive_count(), parallel.world().alive_count());
}

TEST(ConflictCheckEquivalence, CroupierSteadyState) {
  const ExperimentSpec spec{.protocol = "croupier:alpha=25,gamma=50",
                            .nodes = 200, .ratio = 0.2, .duration_s = 30};
  expect_instrumented_equivalence(spec, 42);
}

TEST(ConflictCheckEquivalence, CyclonMaximalBatches) {
  // Constant latency widens the causal window to the full latency — the
  // largest batches, i.e. the most concurrently-validated writes.
  const ExperimentSpec spec{.protocol = "cyclon", .nodes = 150, .ratio = 0.2,
                            .latency = run::World::LatencyKind::Constant,
                            .latency_ms = 50.0, .duration_s = 30};
  expect_instrumented_equivalence(spec, 5);
}

TEST(ConflictCheckEquivalence, GozarChurnAndLoss) {
  // Churn exercises view owner tags across node death/respawn, and loss
  // exercises the deferred drop-counter paths next to the inline hooks.
  const ExperimentSpec spec{.protocol = "gozar", .nodes = 150, .ratio = 0.2,
                            .churn = 0.02, .churn_at_s = 15.0, .loss = 0.05,
                            .duration_s = 30};
  expect_instrumented_equivalence(spec, 7);
}

// ---------------------------------------------------------------------
// Seeded fault: a handler that writes into its *neighbor's* view — the
// exact bug class the checker exists for (compiles fine, races silently
// in a release build, diverges only if batch orders happen to differ).

struct PingMsg final : net::Message {
  [[nodiscard]] std::uint8_t type() const override { return 0x7E; }
  [[nodiscard]] const char* name() const override { return "ping"; }
  void encode(wire::Writer& w) const override { w.u8(0); }
};

/// Each node owns a conflict-tagged view; on_message ages the view of
/// whichever node the registry says — `self` for the honest variant,
/// a neighbor for the rogue one.
class ViewHandler final : public net::MessageHandler {
 public:
  ViewHandler(net::NodeId self, net::NodeId victim,
              std::vector<ViewHandler*>* registry)
      : self_(self), victim_(victim), registry_(registry), view_(4) {
    view_.set_owner(self);
    view_.force_add(pss::NodeDescriptor{self, net::NatType::Public, 0});
  }

  void on_message(net::NodeId /*from*/, const net::Message& /*msg*/) override {
    (*registry_)[victim_]->view_.age_all();
  }

  [[nodiscard]] net::NodeId self() const { return self_; }

 private:
  net::NodeId self_;
  net::NodeId victim_;
  std::vector<ViewHandler*>* registry_;
  pss::PartialView<pss::NodeDescriptor> view_;
};

/// Drives one delivery batch through the real parallel engine: nodes 1
/// and 2 message each other with constant latency, so both deliveries
/// land at the same timestamp and form a genuine two-event batch
/// (batch-size-1 runs inline on the serial path and is exempt by design).
void run_delivery_batch(bool rogue) {
  sim::Simulator simulator;
  net::Network network(simulator,
                       std::make_unique<net::ConstantLatency>(sim::msec(50)),
                       sim::RngStream(9));
  std::vector<ViewHandler*> registry(3, nullptr);
  ViewHandler h1(1, /*victim=*/1, &registry);
  // The rogue node 2 reaches into node 1's view from node 2's shard.
  ViewHandler h2(2, /*victim=*/rogue ? 1 : 2, &registry);
  registry[1] = &h1;
  registry[2] = &h2;
  network.attach(1, net::NatConfig{}, h1);
  network.attach(2, net::NatConfig{}, h2);
  // Unset delivery affinity means every delivery is a serial event —
  // safe but never sharded. Shard by receiver like the World does.
  network.set_delivery_affinity([](net::NodeId to, const net::Message&) {
    return static_cast<sim::Affinity>(to);
  });

  const sim::ParallelExecutor engine(simulator, {2, sim::msec(50)});
  simulator.schedule_at(0, sim::Affinity{1}, [&] {
    network.send(1, 2, std::make_shared<PingMsg>());
  });
  simulator.schedule_at(0, sim::Affinity{2}, [&] {
    network.send(2, 1, std::make_shared<PingMsg>());
  });
  simulator.run_until(sim::sec(1));
}

TEST(ConflictCheckFault, HonestDeliveryBatchPasses) {
  const std::uint64_t before = sim::conflict::checked_writes();
  run_delivery_batch(/*rogue=*/false);
  EXPECT_GT(sim::conflict::checked_writes(), before)
      << "the two sends plus two deliveries must batch and be validated";
}

TEST(ConflictCheckFaultDeathTest, CrossShardViewWriteAborts) {
  // threadsafe style re-execs the test binary for the death child — the
  // only mode that is sound with the executor's worker threads running.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_delivery_batch(/*rogue=*/true), "cross-shard write");
}

TEST(ConflictCheckFaultDeathTest, SharedMeterChargeInsideBatchAborts) {
  // Two same-time node-affine events form a genuine two-event batch; a
  // handler that charges the network-wide traffic meter itself, instead
  // of through Simulator::defer, must abort.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto charge_meter_in_batch = [] {
    sim::Simulator simulator;
    net::Network network(simulator,
                         std::make_unique<net::ConstantLatency>(sim::msec(50)),
                         sim::RngStream(9));
    for (net::NodeId node : {1u, 2u}) {
      simulator.schedule_at(0, sim::Affinity{node}, [&network, node] {
        network.meter().on_send(node, 64);
      });
    }
    const sim::ParallelExecutor engine(simulator, {2, sim::msec(50)});
    simulator.run_until(sim::sec(1));
  };
  EXPECT_DEATH(charge_meter_in_batch(), "shared state \\(TrafficMeter\\)");
}

// ---------------------------------------------------------------------
// Seeded fault: a message whose reader skips a byte its writer wrote.
// Checked builds round-trip every message the network sends, so the send
// itself must abort.

struct LopsidedMsg final : net::WireMessage<LopsidedMsg, 0x7D> {
  std::uint16_t value = 0x1234;

  [[nodiscard]] const char* name() const override { return "lopsided"; }
  friend void layout(wire::Writer& w, const LopsidedMsg& m) {
    layout(w, m.value);
  }
  friend void layout(wire::Reader& r, LopsidedMsg& m) {
    std::uint8_t high = 0;  // one of the two bytes written
    layout(r, high);
    m.value = static_cast<std::uint16_t>(high << 8);
  }
};

class NullHandler final : public net::MessageHandler {
 public:
  void on_message(net::NodeId /*from*/, const net::Message& /*msg*/) override {}
};

TEST(ConflictCheckFaultDeathTest, AsymmetricLayoutAbortsOnSend) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto send_lopsided = [] {
    sim::Simulator simulator;
    net::Network network(simulator,
                         std::make_unique<net::ConstantLatency>(sim::msec(50)),
                         sim::RngStream(9));
    NullHandler h1;
    NullHandler h2;
    network.attach(1, net::NatConfig{}, h1);
    network.attach(2, net::NatConfig{}, h2);
    network.send(1, 2, std::make_shared<LopsidedMsg>());
  };
  EXPECT_DEATH(send_lopsided(),
               "a message's decode does not round-trip its encode");
}

}  // namespace
}  // namespace croupier
