// Tests for the discrete-event simulation kernel: event ordering, clock
// semantics, and the RNG streams everything else depends on for
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace croupier::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(fired, expected);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.schedule_after(msec(250), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, msec(250));
  EXPECT_EQ(sim.now(), msec(250));
}

TEST(Simulator, RunUntilExecutesBoundaryEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.schedule_at(101, [&] { ++fired; });
  sim.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(sec(5));
  EXPECT_EQ(sim.now(), sec(5));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  std::vector<SimTime> fire_times;
  sim.schedule_after(10, [&] {
    fire_times.push_back(sim.now());
    sim.schedule_after(10, [&] { fire_times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(fire_times, (std::vector<SimTime>{10, 20}));
}

TEST(Simulator, ZeroDelayFiresAtSameTime) {
  Simulator sim;
  SimTime seen = 999;
  sim.schedule_after(50, [&] {
    sim.schedule_after(0, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 50u);
}

TEST(Simulator, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_after(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulator, FiresByTimeThenScheduleOrderUnderHeavyTies) {
  // Thousands of events on 40 timestamps, so most share one, plus about
  // as many again scheduled from inside callbacks (a third of those at
  // zero delay). Whatever the heap does, the firing order must be a
  // stable sort of everything scheduled by time.
  Simulator sim;
  RngStream rng(2024);
  std::vector<std::pair<SimTime, int>> scheduled;  // in schedule order
  std::vector<int> fired;
  std::function<void(SimTime)> add = [&](SimTime at) {
    const int label = static_cast<int>(scheduled.size());
    scheduled.emplace_back(at, label);
    sim.schedule_at(at, [&, label] {
      fired.push_back(label);
      if (scheduled.size() < 6000 && rng.chance(0.5)) {
        add(sim.now() + rng.uniform(3));
      }
    });
  };
  for (int i = 0; i < 3000; ++i) add(rng.uniform(40));
  sim.run();

  std::vector<std::pair<SimTime, int>> expected = scheduled;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  ASSERT_GT(scheduled.size(), 4000u);
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i], expected[i].second) << "position " << i;
  }
}

TEST(Simulator, RecurringEventPattern) {
  // The runtime's round loop uses self-rescheduling closures; verify the
  // pattern ticks at the right cadence.
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 5) sim.schedule_after(sec(1), tick);
  };
  sim.schedule_after(sec(1), tick);
  sim.run_until(sec(10));
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), sec(10));
}

TEST(Rng, Deterministic) {
  RngStream a(42);
  RngStream b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  RngStream a(1);
  RngStream b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentDraws) {
  RngStream a(7);
  RngStream fork_before = a.fork(1);
  a.next_u64();
  a.next_u64();
  RngStream fork_after = a.fork(1);
  // fork() must not depend on how much the parent has been consumed.
  EXPECT_EQ(fork_before.next_u64(), fork_after.next_u64());
}

TEST(Rng, ForksWithDifferentTagsDiffer) {
  RngStream a(7);
  RngStream f1 = a.fork(1);
  RngStream f2 = a.fork(2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, ForkLinearCancellationDoesNotCollide) {
  // Regression: the old premix was `lineage ^ gamma*(tag+1)`, so two
  // streams whose lineages differ by exactly gamma*(t1+1) ^ gamma*(t2+1)
  // produced *identical* children from tags t1 and t2. These lineages
  // are constructed to collide under that scheme; the two-round
  // splitmix64 fork must keep them apart.
  constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t l1 = 0x0123456789abcdefULL;
  const std::uint64_t l2 = l1 ^ (kGamma * 2) ^ (kGamma * 3);
  RngStream f1 = RngStream(l1).fork(1);  // old premix: l1 ^ gamma*2
  RngStream f2 = RngStream(l2).fork(2);  // old premix: l2 ^ gamma*3 == l1 ^ gamma*2
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (f1.next_u64() == f2.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NestedForkGridIsCollisionFree) {
  // Per-trial seed derivation nests forks: base.fork(point).fork(run).
  // The first draw of every cell in a seeds x points x runs grid must be
  // distinct (a birthday collision over 8k draws from 2^64 is ~2e-12,
  // so any collision means the fork premix is degenerate, not bad luck).
  std::set<std::uint64_t> seen;
  std::size_t cells = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const RngStream base(seed);
    for (std::uint64_t point = 0; point < 16; ++point) {
      const RngStream mid = base.fork(point);
      for (std::uint64_t run = 0; run < 16; ++run) {
        seen.insert(mid.fork(run).next_u64());
        ++cells;
      }
    }
  }
  EXPECT_EQ(seen.size(), cells);
}

TEST(Rng, NextDoubleInUnitInterval) {
  RngStream r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBound) {
  RngStream r(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.uniform(17), 17u);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  RngStream r(11);
  std::vector<int> buckets(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++buckets[r.uniform(10)];
  for (int count : buckets) {
    EXPECT_NEAR(count, draws / 10, draws / 10 * 0.1);
  }
}

TEST(Rng, ChanceEdgeCases) {
  RngStream r(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  RngStream r(17);
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits, 30000, 1000);
}

TEST(Rng, ExponentialHasRequestedMean) {
  RngStream r(19);
  double sum = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) sum += r.exponential(50.0);
  EXPECT_NEAR(sum / draws, 50.0, 1.0);
}

TEST(Rng, NormalMoments) {
  RngStream r(23);
  double sum = 0;
  double sq = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / draws;
  const double var = sq / draws - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  RngStream r(29);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  r.shuffle(std::span<int>(v));
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(sorted, expected);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  RngStream r(31);
  std::vector<int> pool(100);
  std::iota(pool.begin(), pool.end(), 0);
  const auto picked = r.sample(std::span<const int>(pool), 20);
  ASSERT_EQ(picked.size(), 20u);
  std::vector<int> sorted = picked;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Rng, SampleMoreThanPoolReturnsAll) {
  RngStream r(37);
  std::vector<int> pool{1, 2, 3};
  const auto picked = r.sample(std::span<const int>(pool), 10);
  EXPECT_EQ(picked.size(), 3u);
}

TEST(Rng, SampleFromEmptyPool) {
  RngStream r(41);
  std::vector<int> pool;
  EXPECT_TRUE(r.sample(std::span<const int>(pool), 5).empty());
}

// sample() must make exactly the draws of sample_prefix() on a copy of
// the pool: the same elements in the same order, with the stream left in
// the same state, so switching between them cannot move an output byte.
// Its result is also tight, as shuffle messages keep it.
void expect_sample_is_prefix_draw(std::size_t size, std::size_t n,
                                  std::uint64_t seed) {
  std::vector<int> pool(size);
  std::iota(pool.begin(), pool.end(), 100);
  RngStream sampled(seed);
  RngStream prefixed(seed);
  const auto picked = sampled.sample(std::span<const int>(pool), n);
  std::vector<int> copy = pool;
  copy.resize(prefixed.sample_prefix(std::span<int>(copy), n));
  EXPECT_EQ(picked, copy) << "size " << size << ", n " << n;
  EXPECT_EQ(picked.capacity(), picked.size())
      << "size " << size << ", n " << n;
  EXPECT_EQ(sampled.next_u64(), prefixed.next_u64())
      << "size " << size << ", n " << n;
}

TEST(Rng, SampleMakesSamplePrefixDraws) {
  // Every n from 0 to size + 2 crosses the 16-entry sparse limit and the
  // n >= size full shuffle.
  for (std::size_t size = 0; size <= 40; ++size) {
    for (std::size_t n = 0; n <= size + 2; ++n) {
      expect_sample_is_prefix_draw(size, n, size * 1000 + n + 1);
    }
  }
  for (std::size_t n = 0; n <= 1002; ++n) {
    expect_sample_is_prefix_draw(1000, n, n + 7);
  }
}

TEST(Rng, SampleDenseDrawMakesSamplePrefixDraws) {
  expect_sample_is_prefix_draw(10000, 5000, 99);
}

// Property sweep: sample() hits every element eventually (uniformity
// smoke test across pool sizes).
class RngSampleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RngSampleSweep, EveryElementReachable) {
  const std::size_t pool_size = GetParam();
  RngStream r(pool_size * 7919 + 1);
  std::vector<int> pool(pool_size);
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<bool> seen(pool_size, false);
  for (int round = 0; round < 400; ++round) {
    for (int x : r.sample(std::span<const int>(pool), 2)) seen[static_cast<std::size_t>(x)] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, RngSampleSweep,
                         ::testing::Values(1, 2, 5, 10, 25));

}  // namespace
}  // namespace croupier::sim
