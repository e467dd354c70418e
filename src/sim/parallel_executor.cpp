#include "sim/parallel_executor.hpp"

#include <algorithm>
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

  // Deterministic merge: replay every deferred effect in the order
  // stepping would have produced it — by issuing event
  // (time, seq), then issue order within an event (each event's ops sit
  // contiguously in one shard log; stable_sort keeps them in place).
  merged_.clear();
  std::uint64_t executed = 0;
  for (auto& log : logs_) {
    executed += log.executed;
    log.executed = 0;
    for (auto& op : log.ops) merged_.push_back(std::move(op));
    log.ops.clear();
  }
  std::stable_sort(merged_.begin(), merged_.end(),
                   [](const Simulator::DeferredOp& a,
                      const Simulator::DeferredOp& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.id < b.id;
                   });
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
  for (auto& op : merged_) {
    sim_.now_ = op.time;
    op.fn();
  }
  sim_.causal_floor_ = 0;
  sim_.now_ = last_time;
  merged_.clear();
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
