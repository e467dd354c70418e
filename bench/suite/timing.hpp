// Host time for the benchmark suite.
//
// The suite's only wall-clock source: every span it reports is the
// difference of two suite_clock_ns() readings. Host times are
// measurements about the run, never inputs to it — nothing read here
// reaches simulation state or the output digest.
#pragma once

#include <chrono>
#include <cstdint>

namespace croupier::suite {

/// Monotonic host time in nanoseconds.
inline std::int64_t suite_clock_ns() {
  // detlint:allow(wallclock) benchmark span timing; the value is reported
  // as a measurement and never feeds simulation state or the digest.
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

}  // namespace croupier::suite
