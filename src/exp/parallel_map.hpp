// Parallel execution of independent simulation trials.
//
// Every figure bench averages `runs` independent seeded Worlds per
// parameter point. A World is single-threaded and shares nothing with
// other Worlds, so the trials are embarrassingly parallel: parallel_map
// fans them out over threads started for the one call while keeping
// every observable output deterministic. Indices may run in any order,
// but each one writes into its own result slot, so the aggregation and
// printing that follow see results in index order and the bench output
// is byte-identical for any --jobs value (including 1).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace croupier::exp {

/// Runs fn(0) ... fn(count - 1) and returns the results in index order.
/// min(jobs, count) threads share the indices, the calling thread among
/// them, so jobs <= 1 runs everything on the caller. `fn` runs
/// concurrently, so it must only read what it shares (the bench closures
/// read captured configs and build their own World). The result type
/// must be default-constructible and movable. After the first exception
/// no thread takes a new index; it is rethrown once every thread has
/// joined.
template <typename Fn>
auto parallel_map(std::size_t count, std::size_t jobs, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{}))>> {
  using R = std::decay_t<decltype(fn(std::size_t{}))>;
  // vector<bool> packs slots into shared words, so writes would race.
  static_assert(!std::is_same_v<R, bool>, "return a wider type than bool");
  std::vector<R> out(count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;  // written by the one thread that sets
                                   // `failed`, read after the joins
  const auto work = [&] {
    while (!failed) {
      const std::size_t i = next++;
      if (i >= count) return;
      try {
        out[i] = fn(i);
      } catch (...) {
        if (!failed.exchange(true)) first_error = std::current_exception();
      }
    }
  };
  {
    // jthread joins on destruction, so a failed spawn still joins the
    // helpers already running before `out` and the counters go away.
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < std::min(jobs, count); ++t) {
      helpers.emplace_back(work);
    }
    work();
  }
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

}  // namespace croupier::exp
