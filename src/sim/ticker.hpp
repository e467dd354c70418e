// A periodic, self-rescheduling serial event chain: the one way scenario
// processes and recorders tick.
//
// start(at) fires on_tick at `at` and then every `period` for as long as
// the simulation runs; the next tick is scheduled after on_tick returns.
// There is no cancel: the chain carries a shared guard that the Ticker's
// destructor clears, so a tick still queued when the owner is destroyed
// fires as a no-op and never touches it.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace croupier::sim {

class Ticker {
 public:
  Ticker(Simulator& sim, Duration period, std::function<void()> on_tick)
      : sim_(sim), period_(period), on_tick_(std::move(on_tick)) {
    CROUPIER_ASSERT(period_ > 0);
  }
  ~Ticker() {
    if (alive_ != nullptr) *alive_ = false;
  }

  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  /// Arms the chain: the first tick fires at `at`. Call at most once.
  void start(SimTime at) {
    CROUPIER_ASSERT_MSG(alive_ == nullptr, "Ticker started twice");
    alive_ = std::make_shared<bool>(true);
    sim_.schedule_at(at, [this, alive = alive_] { tick(alive); });
  }

 private:
  void tick(const std::shared_ptr<bool>& alive) {
    if (!*alive) return;
    on_tick_();
    sim_.schedule_after(period_, [this, alive] { tick(alive); });
  }

  Simulator& sim_;
  Duration period_;
  std::function<void()> on_tick_;
  std::shared_ptr<bool> alive_;  // the chain's guard; null until started
};

}  // namespace croupier::sim
