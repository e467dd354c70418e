// Statistical regression contract for fig. 1: larger history windows
// (α, γ) converge to a lower steady-state estimation error, on both the
// average (fig. 1a) and the maximum (fig. 1b) metric.
//
// The point is fig1_stable_ratio's spec at 500 nodes (ω = 0.2, Poisson
// joins) over 250 s, with the bench's steady-state statistic: the mean
// of the last 50 one-second samples. The horizon is not the bench's
// --fast 120 s: (100, 250) has not converged there, and at some seeds it
// still sits above (25, 50). Like every contract here the pins are
// deterministic by the byte-identity contract; they fail only when a
// code change moves the errors.
//
// Measured over seeds 1-20 (steady avg-err / max-err):
//
//   (α, γ)     avg-err            max-err
//   (10, 25)   0.00367-0.00403    0.0150-0.0168
//   (25, 50)   0.00159-0.00181    0.0065-0.0078
//   (100, 250) 0.00042-0.00051    0.0018-0.0022
//
// Each window's error over the next larger one's was at least 2.09
// (avg) and 2.06 (max) for the first step, and 3.27 and 3.16 for the
// second. The contract asks for 1.5 at every step and seed, and bounds
// each error at 1.5x the sweep's largest. A merge that keeps the older
// of two entries for an origin breaks it: (100, 250) then reads
// 0.011-0.045 avg-err at seeds 1-3, above (25, 50).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

#include "runtime/spec.hpp"

namespace croupier::run {
namespace {

struct Window {
  std::size_t alpha;
  std::size_t gamma;
  double max_avg_err;  // 1.5x the sweep's largest steady avg-err
  double max_max_err;  // 1.5x the sweep's largest steady max-err
};

constexpr Window kWindows[] = {
    {10, 25, 0.0060, 0.025},
    {25, 50, 0.0027, 0.0117},
    {100, 250, 0.00077, 0.0033},
};

// Each window's steady error must be at least this multiple of the next
// larger window's.
constexpr double kMinStepRatio = 1.5;

struct SteadyError {
  double avg = 0.0;
  double max = 0.0;
};

SteadyError measure(const Window& w, std::uint64_t seed) {
  Experiment experiment({.protocol = "croupier:alpha=" +
                                     std::to_string(w.alpha) +
                                     ",gamma=" + std::to_string(w.gamma),
                         .nodes = 500,
                         .duration_s = 250},
                        seed);
  experiment.run();
  const auto& series = experiment.estimation()->series();
  const std::size_t tail = std::min<std::size_t>(50, series.size());
  SteadyError out;
  for (std::size_t i = series.size() - tail; i < series.size(); ++i) {
    out.avg += series[i].sample.avg_error;
    out.max += series[i].sample.max_error;
  }
  out.avg /= static_cast<double>(tail);
  out.max /= static_cast<double>(tail);
  return out;
}

TEST(Fig1Contract, LargerWindowsGiveLowerSteadyError) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SteadyError smaller;
    for (std::size_t i = 0; i < std::size(kWindows); ++i) {
      const Window& w = kWindows[i];
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", alpha "
                                        << w.alpha << ", gamma " << w.gamma);
      const SteadyError err = measure(w, seed);
      EXPECT_GT(err.avg, 0.0);
      EXPECT_LT(err.avg, w.max_avg_err);
      EXPECT_LT(err.max, w.max_max_err);
      if (i > 0) {
        EXPECT_GT(smaller.avg, kMinStepRatio * err.avg)
            << "avg-err " << smaller.avg << " vs " << err.avg;
        EXPECT_GT(smaller.max, kMinStepRatio * err.max)
            << "max-err " << smaller.max << " vs " << err.max;
      }
      smaller = err;
    }
  }
}

}  // namespace
}  // namespace croupier::run
