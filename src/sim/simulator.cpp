#include "sim/simulator.hpp"

#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "sim/parallel_executor.hpp"

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

void Simulator::schedule_after(Duration delay, Affinity affinity,
                               EventQueue::Callback fn) {
  schedule_impl(now() + delay, affinity, std::move(fn), /*check_past=*/false);
}

void Simulator::schedule_at(SimTime at, Affinity affinity,
                            EventQueue::Callback fn) {
  schedule_impl(at, affinity, std::move(fn), /*check_past=*/true);
}

void Simulator::schedule_impl(SimTime at, Affinity affinity,
                              EventQueue::Callback fn, bool check_past) {
  if (ShardLog* log = active_log()) {
    // Parallel batch: the queue is shared, so the schedule is logged, and
    // the event's id is assigned at the merge. replay() re-enters
    // schedule_impl there (the log is inactive), which repeats the
    // serial-path checks.
    log->ops.push_back(
        DeferredOp{log->current_time, log->current_id,
                   LoggedSchedule{at, affinity, check_past, std::move(fn)}});
    return;
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
  queue_.schedule(at, affinity, std::move(fn));
}

void Simulator::replay(DeferredOp& op) {
  now_ = op.time;
  if (auto* logged = std::get_if<LoggedSchedule>(&op.what)) {
    schedule_impl(logged->at, logged->affinity, std::move(logged->fn),
                  logged->check_past);
  } else {
    std::get<InlineEffect>(op.what).run();
  }
}

void Simulator::fire(EventQueue::Event& event) {
  CROUPIER_ASSERT(event.time >= now_);
  now_ = event.time;
  ++processed_;
  event.fn();
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto event = queue_.pop();
  fire(event);
  return true;
}

void Simulator::run_events(SimTime deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    if (executor_ != nullptr && queue_.next_affinity() != kSerialAffinity) {
      executor_->run_window(deadline);
    } else {
      // A serial event is a synchronization barrier: every batch before
      // it has merged, so it observes exactly the sequential state.
      step();
    }
  }
}

void Simulator::run_until(SimTime deadline) {
  run_events(deadline);
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() { run_events(std::numeric_limits<SimTime>::max()); }

}  // namespace croupier::sim
