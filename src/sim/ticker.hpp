// A periodic, self-rescheduling serial event chain: the one way scenario
// processes and recorders tick.
//
// start(at) fires on_tick at `at` and then every `period`, until stop().
// The next tick is scheduled after on_tick returns. There is no cancel:
// each arming carries a shared guard, stop() clears it, and a tick whose
// guard is clear fires as a no-op. So stop() is immediate — a tick
// already in the queue does nothing — and idempotent, and start() after
// stop() arms a fresh guard, so the stopped chain can never run beside
// the new one. The Ticker's destructor stops it, so its queued ticks
// never touch a destroyed owner.
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
  ~Ticker() { stop(); }

  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  /// Arms the chain: the first tick fires at `at`. Must not be running.
  void start(SimTime at) {
    CROUPIER_ASSERT_MSG(armed_ == nullptr, "Ticker started twice");
    armed_ = std::make_shared<bool>(true);
    sim_.schedule_at(at, [this, armed = armed_] { tick(armed); });
  }

  void stop() {
    if (armed_ == nullptr) return;
    *armed_ = false;
    armed_.reset();
  }

 private:
  void tick(const std::shared_ptr<bool>& armed) {
    if (!*armed) return;
    on_tick_();
    if (*armed) sim_.schedule_after(period_, [this, armed] { tick(armed); });
  }

  Simulator& sim_;
  Duration period_;
  std::function<void()> on_tick_;
  std::shared_ptr<bool> armed_;  // this arming's guard; null when stopped
};

}  // namespace croupier::sim
