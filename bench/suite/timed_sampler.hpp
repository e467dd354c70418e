// Outside-in timing of the protocol layer.
//
// TimedSampler is a forwarding PeerSampler decorator: the traced run
// wraps every protocol instance the registry builds in one, and it times
// the three calls the engine makes into a protocol — init(), round() and
// on_message() — without touching the protocol's code. Everything else
// forwards untouched, so the wrapped world behaves exactly like the
// unwrapped one.
//
// Under the parallel engine round() and on_message() run on worker
// threads. Each thread books into its own SpanSlot (created on first use
// under the registry mutex, then touched by that thread only); merged()
// sums the slots once the engine is idle.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "pss/protocol.hpp"
#include "timing.hpp"

namespace croupier::suite {

/// Calls and host nanoseconds spent in one kind of call.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

inline void book_span(SpanTotals& totals, std::int64_t ns) {
  ++totals.calls;
  totals.ns += ns;
}

/// One thread's protocol spans; messages are bucketed by wire type tag.
struct SpanSlot {
  SpanTotals init;
  SpanTotals round;
  std::array<SpanTotals, 256> msg{};
  std::array<const char*, 256> msg_name{};

  void absorb(const SpanSlot& other) {
    init.calls += other.init.calls;
    init.ns += other.init.ns;
    round.calls += other.round.calls;
    round.ns += other.round.ns;
    for (std::size_t t = 0; t < msg.size(); ++t) {
      msg[t].calls += other.msg[t].calls;
      msg[t].ns += other.msg[t].ns;
      if (msg_name[t] == nullptr) msg_name[t] = other.msg_name[t];
    }
  }
};

class SpanRegistry {
 public:
  /// The calling thread's slot.
  SpanSlot& thread_slot() {
    thread_local std::uint64_t owner = 0;
    thread_local SpanSlot* slot = nullptr;
    if (owner != id_) {
      const std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<SpanSlot>());
      slot = slots_.back().get();
      owner = id_;
    }
    return *slot;
  }

  /// Sum over all threads. Call only while no protocol call is running.
  [[nodiscard]] SpanSlot merged() const {
    const std::lock_guard<std::mutex> lock(mu_);
    SpanSlot total;
    for (const auto& s : slots_) total.absorb(*s);
    return total;
  }

 private:
  // Process-unique, so a thread's cached slot can never be mistaken for
  // one of a later registry built at the same address.
  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  const std::uint64_t id_ = next_id();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanSlot>> slots_;
};

class TimedSampler final : public pss::PeerSampler {
 public:
  TimedSampler(Context base, std::unique_ptr<pss::PeerSampler> inner,
               SpanRegistry& spans)
      : PeerSampler(std::move(base)), inner_(std::move(inner)), spans_(spans) {}

  void init() override {
    const std::int64_t t0 = suite_clock_ns();
    inner_->init();
    book_span(spans_.thread_slot().init, suite_clock_ns() - t0);
  }

  void round() override {
    const std::int64_t t0 = suite_clock_ns();
    inner_->round();
    book_span(spans_.thread_slot().round, suite_clock_ns() - t0);
  }

  void on_message(net::NodeId from, const net::Message& msg) override {
    const std::int64_t t0 = suite_clock_ns();
    inner_->on_message(from, msg);
    const std::int64_t ns = suite_clock_ns() - t0;
    SpanSlot& slot = spans_.thread_slot();
    book_span(slot.msg[msg.type()], ns);
    slot.msg_name[msg.type()] = msg.name();
  }

  std::optional<pss::NodeDescriptor> sample() override {
    return inner_->sample();
  }
  [[nodiscard]] std::vector<net::NodeId> out_neighbors() const override {
    return inner_->out_neighbors();
  }
  [[nodiscard]] std::vector<net::NodeId> usable_neighbors(
      const AliveFn& alive) const override {
    return inner_->usable_neighbors(alive);
  }
  [[nodiscard]] std::optional<double> ratio_estimate() const override {
    return inner_->ratio_estimate();
  }

  [[nodiscard]] const pss::PeerSampler& wrapped() const { return *inner_; }

 private:
  std::unique_ptr<pss::PeerSampler> inner_;
  SpanRegistry& spans_;
};

}  // namespace croupier::suite
