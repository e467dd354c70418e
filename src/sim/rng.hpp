// Deterministic random number generation for the simulator.
//
// Every stochastic component (latency model, loss model, each protocol
// instance, scenario processes) owns its own RngStream forked from a master
// seed. Forking is done by hashing (seed, tag) so streams are statistically
// independent and experiments are exactly reproducible: the same master
// seed always produces the same run regardless of how many components
// exist or in which order they draw.
//
// The generator is xoshiro256** (public domain, Blackman & Vigna), seeded
// through SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace croupier::sim {

/// SplitMix64 step; used for seeding and for stream forking.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// An independent, seedable random stream.
class RngStream {
 public:
  /// Seeds the stream. Two streams with different seeds are independent
  /// for all practical purposes.
  explicit RngStream(std::uint64_t seed = 0x853c49e6748fea9bULL)
      : lineage_(seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derives an independent child stream from this stream's seed lineage
  /// and a caller-chosen tag. Forking neither advances this stream nor
  /// depends on how much of it has been consumed.
  ///
  /// (lineage, tag) is hashed through two full splitmix64 rounds —
  /// lineage through the first, tag absorbed before the second. The
  /// earlier XOR-linear premix (`lineage ^ gamma*(tag+1)`) let distinct
  /// (lineage, tag) pairs collide whenever the lineage difference
  /// cancelled the tag difference, which nested forks (fork().fork(),
  /// the basis of per-trial seed derivation) made easy to hit.
  [[nodiscard]] RngStream fork(std::uint64_t tag) const {
    std::uint64_t sm = lineage_;
    sm = splitmix64(sm) ^ tag;
    return RngStream(splitmix64(sm));
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). bound must be positive.
  std::uint64_t uniform(std::uint64_t bound) {
    CROUPIER_ASSERT(bound > 0);
    // Lemire's nearly-divisionless bounded sampling with rejection.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Exponentially distributed value with the given mean (rate = 1/mean).
  double exponential(double mean) {
    CROUPIER_ASSERT(mean > 0.0);
    double u = next_double();
    // Guard against log(0).
    if (u <= 0.0) u = std::numeric_limits<double>::min();
    return -mean * std::log(u);
  }

  /// Standard normal via Box-Muller (single value; partner discarded).
  double normal(double mean, double stddev) {
    double u1 = next_double();
    if (u1 <= 0.0) u1 = std::numeric_limits<double>::min();
    const double u2 = next_double();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * radius * std::cos(2.0 * 3.141592653589793 * u2);
  }

  /// Picks a uniformly random element index for a container of given size.
  std::size_t index(std::size_t size) {
    CROUPIER_ASSERT(size > 0);
    return static_cast<std::size_t>(uniform(size));
  }

  /// Fisher-Yates shuffle of a span in place.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// In-place sampling core: selects min(n, pool.size()) elements into
  /// the prefix of `pool`, uniformly without replacement and in random
  /// order, and returns how many were selected. Callers that already own
  /// a scratch vector avoid the copy sample() makes. The draw sequence
  /// is exactly sample()'s for the same pool and n, so swapping one for
  /// the other cannot change downstream bytes.
  template <typename T>
  std::size_t sample_prefix(std::span<T> pool, std::size_t n) {
    if (n >= pool.size()) {
      shuffle(pool);
      return pool.size();
    }
    // Partial Fisher-Yates: select n elements into the prefix.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(uniform(pool.size() - i));
      using std::swap;
      swap(pool[i], pool[j]);
    }
    return n;
  }

  /// The pool positions sample() picks from a pool of `size` elements:
  /// min(n, size) distinct indices below `size`, passed to `pick` in
  /// pick order. The draws are exactly sample_prefix()'s on such a pool;
  /// they depend only on `size` and n. Callers that keep a pool in
  /// columns gather each pick from them instead of copying the pool.
  ///
  /// A small draw (n < size, n <= kSparseSampleMax) runs the partial
  /// Fisher-Yates over the index range and remembers only the positions
  /// its swaps displaced, so it allocates nothing. Larger draws run
  /// sample_prefix() over an index array: a displaced-position list
  /// would make them quadratic.
  template <typename Pick>
  void sample_positions(std::size_t size, std::size_t n, Pick&& pick) {
    if (n >= size || n > kSparseSampleMax) {
      std::vector<std::size_t> order(size);
      for (std::size_t i = 0; i < size; ++i) order[i] = i;
      const std::size_t k = sample_prefix(std::span<std::size_t>(order), n);
      for (std::size_t i = 0; i < k; ++i) pick(order[i]);
      return;
    }
    // Step k's swap left at index moved_to[k] the pool position
    // moved_pos[k]. An index's position is that of its latest record, or
    // the index itself if it has none; indices below the cursor are never
    // looked up again. Appending one record per step keeps the scan free
    // of slot bookkeeping, and the arrays stay uninitialized: step i
    // reads only records 0..i-1.
    std::array<std::size_t, kSparseSampleMax> moved_to;
    std::array<std::size_t, kSparseSampleMax> moved_pos;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(uniform(size - i));
      std::size_t pos_j = j;
      std::size_t pos_i = i;
      for (std::size_t k = 0; k < i; ++k) {
        pos_j = moved_to[k] == j ? moved_pos[k] : pos_j;
        pos_i = moved_to[k] == i ? moved_pos[k] : pos_i;
      }
      pick(pos_j);
      moved_to[i] = j;
      moved_pos[i] = pos_i;
    }
  }

  /// Samples up to n distinct elements from items, uniformly without
  /// replacement, in random order (so truncating the result keeps it an
  /// unbiased sample). The draws are exactly sample_prefix()'s for the
  /// same pool and n, and the result's capacity is its size.
  ///
  /// A full draw (n >= size) shuffles a copy of the pool; any other
  /// gathers the elements at sample_positions(). Either way the result
  /// is the only copy of the pool's elements.
  template <typename T>
  std::vector<T> sample(std::span<const T> items, std::size_t n) {
    if (n >= items.size()) {
      std::vector<T> out(items.begin(), items.end());
      shuffle(std::span<T>(out));
      return out;
    }
    std::vector<T> out;
    out.reserve(n);
    sample_positions(items.size(), n,
                     [&](std::size_t pos) { out.push_back(items[pos]); });
    return out;
  }

 private:
  /// Largest n that sample_positions() draws without an index array. It
  /// covers the estimator's share() (9 or 10), the bootstrap's fan-out (6)
  /// and gozar's relay pick; failure and natflap draws run to thousands.
  static constexpr std::size_t kSparseSampleMax = 16;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t lineage_ = 0;  // construction seed; basis for fork()
};

}  // namespace croupier::sim
