#include "sim/simulator.hpp"

#include <utility>

#include "common/assert.hpp"

namespace croupier::sim {

thread_local Simulator::ShardLog* Simulator::tls_log_ = nullptr;

Simulator::ShardLog* Simulator::active_log() const {
  ShardLog* log = tls_log_;
  return (log != nullptr && log->owner == this) ? log : nullptr;
}

void Simulator::bind_shard_log(ShardLog* log) { tls_log_ = log; }

SimTime Simulator::now() const {
  const ShardLog* log = active_log();
  return log != nullptr ? log->current_time : now_;
}

EventId Simulator::schedule_after(Duration delay, Affinity affinity,
                                  EventQueue::Callback fn) {
  return schedule_impl(now() + delay, affinity, std::move(fn),
                       /*check_past=*/false);
}

EventId Simulator::schedule_at(SimTime at, Affinity affinity,
                               EventQueue::Callback fn) {
  return schedule_impl(at, affinity, std::move(fn), /*check_past=*/true);
}

EventId Simulator::schedule_impl(SimTime at, Affinity affinity,
                                 EventQueue::Callback fn, bool check_past) {
  if (ShardLog* log = active_log()) {
    // Parallel batch: the queue is shared, so the schedule itself becomes
    // a deferred effect. Re-entering schedule_impl at merge time (the log
    // is inactive there) repeats the serial-path checks.
    log->ops.push_back(DeferredOp{
        log->current_time, log->current_id,
        [this, at, affinity, fn = std::move(fn), check_past]() mutable {
          schedule_impl(at, affinity, std::move(fn), check_past);
        }});
    return kInvalidEventId;
  }
  if (check_past) {
    CROUPIER_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  }
  // While merging a parallel batch, every deferred schedule must land at
  // or after the batch's last event; a violation means the executor's
  // lookahead exceeded a delay some batched event scheduled with — a
  // network hop under the latency model's min_latency(), a round period,
  // or the reassembly timeout — and the batch was not causally closed.
  CROUPIER_ASSERT_MSG(causal_floor_ == 0 || at >= causal_floor_,
                      "deferred schedule violates the lookahead window");
  return queue_.schedule(at, affinity, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  CROUPIER_ASSERT_MSG(active_log() == nullptr,
                      "cancel() from inside a parallel batch");
  CROUPIER_ASSERT_MSG(id != kInvalidEventId,
                      "cancel() of kInvalidEventId: ids issued inside a "
                      "parallel batch name no event");
  return queue_.cancel(id);
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  CROUPIER_ASSERT(fired.time >= now_);
  now_ = fired.time;
  ++processed_;
  fired.fn();
  return true;
}

void Simulator::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace croupier::sim
