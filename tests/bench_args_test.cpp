// BenchArgs::parse: the flag parsing shared by every bench binary.
// Covers defaults, each flag, combinations, and malformed numeric input
// (which must warn and keep the default rather than abort the bench).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

namespace croupier::bench {
namespace {

BenchArgs parse(std::vector<std::string> argv) {
  argv.insert(argv.begin(), "bench");
  std::vector<char*> raw;
  raw.reserve(argv.size());
  for (auto& a : argv) raw.push_back(a.data());
  return BenchArgs::parse(static_cast<int>(raw.size()), raw.data());
}

TEST(BenchArgs, Defaults) {
  const auto args = parse({});
  EXPECT_EQ(args.runs, 2u);
  EXPECT_EQ(args.seed, 1u);
  EXPECT_EQ(args.jobs, 0u);  // 0 = hardware concurrency
  EXPECT_TRUE(args.csv.empty());
  EXPECT_FALSE(args.fast);
}

TEST(BenchArgs, ParsesRuns) {
  EXPECT_EQ(parse({"--runs=5"}).runs, 5u);
}

TEST(BenchArgs, ZeroRunsClampsToOne) {
  // Regression: --runs=0 used to reach the benches unchanged and feed
  // empty run sets into the aggregates (division by zero).
  EXPECT_EQ(parse({"--runs=0"}).runs, 1u);
}

TEST(BenchArgs, ParsesJobs) {
  EXPECT_EQ(parse({"--jobs=4"}).jobs, 4u);
  EXPECT_EQ(parse({"--jobs=1"}).jobs, 1u);
}

TEST(BenchArgs, TrialJobsSplitsTheJobsBudgetAcrossWorldJobs) {
  // --jobs unset means the hardware count, and there is at least one.
  EXPECT_GE(parse({}).trial_jobs(), 1u);
  EXPECT_EQ(parse({"--jobs=8", "--world-jobs=4"}).trial_jobs(), 2u);
  EXPECT_EQ(parse({"--jobs=3", "--world-jobs=2"}).trial_jobs(), 1u);
}

TEST(BenchArgs, ParsesCsvPath) {
  if (built_with_sanitizer()) {
    GTEST_SKIP() << "--csv is refused under sanitizer builds (by design)";
  }
  EXPECT_EQ(parse({"--csv=/tmp/out.csv"}).csv, "/tmp/out.csv");
  EXPECT_TRUE(parse({"--csv="}).csv.empty());
}

TEST(BenchArgs, CsvRefusedUnderSanitizer) {
  // Sanitized timings must never become a baseline: --csv is a hard
  // error (exit 2), not a warning, in an instrumented binary.
  if (!built_with_sanitizer()) {
    GTEST_SKIP() << "needs an -fsanitize build to exercise the refusal";
  }
  EXPECT_EXIT(parse({"--csv=/tmp/out.csv"}), testing::ExitedWithCode(2),
              "refusing --csv");
}

TEST(BenchArgs, BuildInfoReportsSanitizerAndExits) {
  // --build-info prints provenance (stdout, for run_benches.sh) and
  // exits 0 without launching the bench.
  EXPECT_EXIT(parse({"--build-info"}), testing::ExitedWithCode(0), "");
}

TEST(BenchArgs, MalformedJobsKeepsDefault) {
  EXPECT_EQ(parse({"--jobs=many"}).jobs, 0u);
}

TEST(BenchArgs, ParsesSeed) {
  EXPECT_EQ(parse({"--seed=42"}).seed, 42u);
  EXPECT_EQ(parse({"--seed=18446744073709551615"}).seed,
            18446744073709551615ull);
}

TEST(BenchArgs, ParsesFast) {
  EXPECT_TRUE(parse({"--fast"}).fast);
}

TEST(BenchArgs, ParsesCombination) {
  const auto args = parse({"--runs=7", "--fast", "--seed=9"});
  EXPECT_EQ(args.runs, 7u);
  EXPECT_EQ(args.seed, 9u);
  EXPECT_TRUE(args.fast);
}

TEST(BenchArgs, LastFlagWins) {
  const auto args = parse({"--runs=3", "--runs=8"});
  EXPECT_EQ(args.runs, 8u);
}

TEST(BenchArgs, MalformedNumberKeepsDefault) {
  EXPECT_EQ(parse({"--runs=abc"}).runs, 2u);
  EXPECT_EQ(parse({"--seed=abc"}).seed, 1u);
}

TEST(BenchArgs, TrailingGarbageKeepsDefault) {
  EXPECT_EQ(parse({"--runs=5x"}).runs, 2u);
  EXPECT_EQ(parse({"--seed=1 2"}).seed, 1u);
}

TEST(BenchArgs, EmptyNumberKeepsDefault) {
  EXPECT_EQ(parse({"--runs="}).runs, 2u);
  EXPECT_EQ(parse({"--seed="}).seed, 1u);
}

TEST(BenchArgs, OverflowKeepsDefault) {
  // One past UINT64_MAX.
  EXPECT_EQ(parse({"--seed=18446744073709551616"}).seed, 1u);
}

TEST(BenchArgs, NegativeNumberKeepsDefault) {
  // strtoull would happily wrap "-1"; parse must reject it instead.
  EXPECT_EQ(parse({"--runs=-1"}).runs, 2u);
}

TEST(BenchArgs, HelpPrintsUsageAndExits) {
  // The regex matches stderr (usage goes to stdout); exit code 0 is the
  // contract under test.
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(BenchArgs, UnknownFlagsAreIgnoredButWarn) {
  // Regression: a typo like --run=5 used to be swallowed silently and the
  // bench ran with the default; it must now be called out on stderr.
  ::testing::internal::CaptureStderr();
  const auto args = parse({"--bogus", "stray", "--fast"});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(args.fast);
  EXPECT_EQ(args.runs, 2u);
  EXPECT_NE(err.find("unknown flag --bogus"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown flag stray"), std::string::npos) << err;
}

TEST(BenchArgs, TypoedFlagWarns) {
  ::testing::internal::CaptureStderr();
  const auto args = parse({"--run=5"});  // meant --runs=5
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(args.runs, 2u);
  EXPECT_NE(err.find("unknown flag --run=5"), std::string::npos) << err;
}

TEST(BenchArgs, KnownFlagsDoNotWarn) {
  std::vector<std::string> argv{"--runs=3", "--seed=2", "--jobs=1", "--fast"};
  // --csv exits a sanitized binary by design (see CsvRefusedUnderSanitizer),
  // so only exercise it in ordinary builds.
  if (!built_with_sanitizer()) argv.emplace_back("--csv=/tmp/x");
  ::testing::internal::CaptureStderr();
  (void)parse(std::move(argv));
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
}

TEST(BenchArgs, ExtraFlagHookConsumesBeforeWarning) {
  std::vector<std::string> seen;
  ::testing::internal::CaptureStderr();
  std::vector<std::string> argv{"bench", "--protocol=croupier", "--fast"};
  std::vector<char*> raw;
  for (auto& a : argv) raw.push_back(a.data());
  const auto args = BenchArgs::parse(
      static_cast<int>(raw.size()), raw.data(),
      [&seen](const std::string& a) {
        if (a.rfind("--protocol=", 0) == 0) {
          seen.push_back(a);
          return true;
        }
        return false;
      });
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(args.fast);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "--protocol=croupier");
  EXPECT_TRUE(err.empty()) << err;
}

}  // namespace
}  // namespace croupier::bench
