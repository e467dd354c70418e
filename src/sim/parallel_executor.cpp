#include "sim/parallel_executor.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "sim/conflict.hpp"

namespace croupier::sim {

ParallelExecutor::ParallelExecutor(Simulator& sim, Options options)
    : sim_(sim),
      jobs_(std::max<std::size_t>(1, options.jobs)),
      lookahead_(std::max<Duration>(1, options.lookahead)),
      shard_events_(jobs_),
      logs_(jobs_) {
  CROUPIER_ASSERT_MSG(sim_.executor_ == nullptr,
                      "simulator already has an executor");
  sim_.executor_ = this;
  workers_.reserve(jobs_ - 1);
  for (std::size_t shard = 1; shard < jobs_; ++shard) {
    workers_.emplace_back([this, shard] { worker_loop(shard); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  sim_.executor_ = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelExecutor::run_window(SimTime deadline) {
  // Drain the maximal (time, seq)-ordered run of node-affine events
  // inside the causal window. Stopping at the first serial event keeps
  // the run a strict prefix of the sequential execution order.
  EventQueue& q = sim_.queue_;
  const SimTime last = std::min(q.next_time() + (lookahead_ - 1), deadline);
  batch_.clear();
  while (!q.empty() && q.next_time() <= last &&
         q.next_affinity() != kSerialAffinity) {
    batch_.push_back(q.pop());
  }
  CROUPIER_ASSERT(!batch_.empty());

  if (batch_.size() == 1) {
    // A lone event's deferred effects would replay immediately after it
    // in issue order anyway (and nothing it runs can observe the
    // difference — that is the defer() contract), so execute it like
    // Simulator::step() and skip the worker handoff.
    sim_.fire(batch_.front());
    return;
  }
  execute_batch();
}

void ParallelExecutor::execute_batch() {
  ++stats_.batches;
  stats_.batched_events += batch_.size();
  stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, batch_.size());
  const SimTime last_time = batch_.back().time;  // batch_ is (time, seq)-sorted

  for (auto& shard : shard_events_) shard.clear();
  for (auto& ev : batch_) {
    shard_events_[shard_of(ev.affinity, jobs_)].push_back(std::move(ev));
  }

  if (jobs_ == 1) {
    run_shard(0);
  } else {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++generation_;
      pending_ = jobs_ - 1;
    }
    start_cv_.notify_all();
    run_shard(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }

  std::uint64_t executed = 0;
  for (auto& log : logs_) {
    executed += log.executed;
    log.executed = 0;
  }
  sim_.processed_ += executed;
  // Determinism bound: a deferred schedule at or after the batch's last
  // event time gets a fresh id that sorts after every executed event, so
  // stepping would run it in the same place (a same-time target just
  // forms the next batch). Only a target *before* last_time would
  // reorder history — that is what the assert catches. With a lookahead
  // no longer than any delay a batched event schedules with, targets
  // land past the window anyway; the floor also keeps the degenerate
  // zero-min-latency same-timestamp batches (lookahead clamped to 1 us)
  // working instead of tripping the guard.
  sim_.causal_floor_ = last_time;
  merge();
  sim_.causal_floor_ = 0;
  sim_.now_ = last_time;
  for (auto& log : logs_) log.ops.clear();
}

void ParallelExecutor::merge() {
  // Deterministic merge: replay every logged op in the order stepping
  // would have produced it — by issuing event (time, seq), then issue
  // order within the event. Each shard's log is already in that order
  // and holds each of its events' ops contiguously, so a k-way merge on
  // the logs' heads replays one event's run of ops at a time.
  heads_.assign(jobs_, 0);
  for (;;) {
    std::size_t next = 0;
    const Simulator::DeferredOp* first = nullptr;
    for (std::size_t shard = 0; shard < jobs_; ++shard) {
      const auto& ops = logs_[shard].ops;
      if (heads_[shard] == ops.size()) continue;
      const Simulator::DeferredOp& head = ops[heads_[shard]];
      if (first == nullptr || std::tie(head.time, head.id) <
                                  std::tie(first->time, first->id)) {
        next = shard;
        first = &head;
      }
    }
    if (first == nullptr) return;
    auto& ops = logs_[next].ops;
    std::size_t& at = heads_[next];
    const EventId id = first->id;
    do {
      sim_.replay(ops[at]);
    } while (++at < ops.size() && ops[at].id == id);
  }
}

void ParallelExecutor::run_shard(std::size_t shard) {
  auto& events = shard_events_[shard];
  Simulator::ShardLog& log = logs_[shard];
  log.owner = &sim_;
  Simulator::bind_shard_log(&log);
  for (auto& ev : events) {
    log.current_time = ev.time;
    log.current_id = ev.id;
    ++log.executed;
    conflict::begin_shard_event(ev.affinity);
    ev.fn();
    conflict::end_shard_event();
  }
  Simulator::bind_shard_log(nullptr);
}

void ParallelExecutor::worker_loop(std::size_t shard) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    start_cv_.wait(lock,
                   [this, seen] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    lock.unlock();
    run_shard(shard);
    lock.lock();
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

}  // namespace croupier::sim
