// Tests for the exp/ trial-execution subsystem: TrialPool scheduling and
// exception behaviour, deterministic per-trial seed derivation, ResultSink
// CSV emission, and the cornerstone guarantee of the whole harness — a
// parallel run aggregates to byte-identical output as a serial run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/seeds.hpp"
#include "exp/sink.hpp"
#include "exp/trial_pool.hpp"

namespace croupier::exp {
namespace {

TEST(TrialPool, DefaultsToHardwareConcurrency) {
  TrialPool pool;
  EXPECT_GE(pool.jobs(), 1u);
}

TEST(TrialPool, RunsEverySubmittedTask) {
  TrialPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(TrialPool, MapKeepsSubmissionOrder) {
  TrialPool pool(4);
  const auto out =
      pool.map(64, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 3);
}

TEST(TrialPool, WaitIsReusable) {
  TrialPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(TrialPool, WaitRethrowsFirstTaskException) {
  TrialPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw std::runtime_error("trial failed"); });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(TrialSeed, IsDeterministic) {
  EXPECT_EQ(trial_seed(1, 2, 3), trial_seed(1, 2, 3));
  EXPECT_NE(trial_seed(1, 2, 3), trial_seed(1, 2, 4));
  EXPECT_NE(trial_seed(1, 2, 3), trial_seed(1, 3, 3));
  EXPECT_NE(trial_seed(1, 2, 3), trial_seed(2, 2, 3));
}

TEST(TrialSeed, GridCellsAreDistinct) {
  std::set<std::uint64_t> seen;
  std::size_t cells = 0;
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    for (std::uint64_t point = 0; point < 20; ++point) {
      for (std::uint64_t run = 0; run < 20; ++run) {
        seen.insert(trial_seed(seed, point, run));
        ++cells;
      }
    }
  }
  EXPECT_EQ(seen.size(), cells);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ResultSink, WritesSeriesToCsvAndText) {
  const std::string csv_path = ::testing::TempDir() + "sink_series.csv";
  const std::string txt_path = ::testing::TempDir() + "sink_series.txt";
  {
    std::FILE* out = std::fopen(txt_path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    ResultSink sink(csv_path, out);
    EXPECT_TRUE(sink.csv_enabled());
    const std::vector<double> x{0.0, 1.0};
    const std::vector<double> y{0.25, 0.5};
    sink.series("figX avg-error", x, y);
    sink.value("summary", "steady avg-err", 0.125);
    std::fclose(out);
  }
  EXPECT_EQ(slurp(txt_path),
            "# figX avg-error\n"
            "0 0.250000\n"
            "1 0.500000\n"
            "\n");
  EXPECT_EQ(slurp(csv_path),
            "kind,block,x,y\n"
            "series,\"figX avg-error\",0,0.250000\n"
            "series,\"figX avg-error\",1,0.500000\n"
            "value,\"summary\",\"steady avg-err\",0.125\n");
  std::remove(csv_path.c_str());
  std::remove(txt_path.c_str());
}

TEST(ResultSink, SeriesWithSpreadEmitsThirdColumnAndSpreadRows) {
  const std::string csv_path = ::testing::TempDir() + "sink_spread.csv";
  const std::string txt_path = ::testing::TempDir() + "sink_spread.txt";
  {
    std::FILE* out = std::fopen(txt_path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    ResultSink sink(csv_path, out);
    const std::vector<double> x{0.0, 1.0};
    const std::vector<double> y{0.25, 0.5};
    const std::vector<double> sd{0.01, 0.02};
    sink.series("figX avg-error", x, y, sd);
    sink.value("summary", "steady avg-err", 0.125);
    sink.spread("summary", "steady avg-err", 0.004);
    std::fclose(out);
  }
  EXPECT_EQ(slurp(txt_path),
            "# figX avg-error\n"
            "0 0.250000 0.010000\n"
            "1 0.500000 0.020000\n"
            "\n");
  EXPECT_EQ(slurp(csv_path),
            "kind,block,x,y\n"
            "series,\"figX avg-error\",0,0.250000\n"
            "spread,\"figX avg-error\",0,0.010000\n"
            "series,\"figX avg-error\",1,0.500000\n"
            "spread,\"figX avg-error\",1,0.020000\n"
            "value,\"summary\",\"steady avg-err\",0.125\n"
            "spread,\"summary\",\"steady avg-err\",0.004\n");
  std::remove(csv_path.c_str());
  std::remove(txt_path.c_str());
}

TEST(Accum, WelfordMeanAndSampleStddev) {
  Accum acc;
  EXPECT_EQ(acc.n(), 0u);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  acc.add(2.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);  // one sample: no spread yet
  acc.add(4.0);
  acc.add(4.0);
  acc.add(4.0);
  acc.add(5.0);
  acc.add(5.0);
  acc.add(7.0);
  acc.add(9.0);
  EXPECT_EQ(acc.n(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance of {2,4,4,4,5,5,7,9} is 32/7.
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(ResultSink, QuotesEmbeddedQuotesAndCommas) {
  const std::string csv_path = ::testing::TempDir() + "sink_quote.csv";
  {
    ResultSink sink(csv_path, nullptr);
    sink.value("a \"b\", c", "k", 1.0);
  }
  EXPECT_EQ(slurp(csv_path),
            "kind,block,x,y\n"
            "value,\"a \"\"b\"\", c\",\"k\",1\n");
  std::remove(csv_path.c_str());
}

TEST(ResultSink, UnwritableCsvPathDegradesToTextOnly) {
  ResultSink sink("/nonexistent-dir/x.csv", nullptr);
  EXPECT_FALSE(sink.csv_enabled());
  sink.value("block", "key", 1.0);  // must not crash
}

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("n=%zu r=%.2f", std::size_t{5}, 0.5), "n=5 r=0.50");
  EXPECT_EQ(strf("%s", ""), "");
}

TEST(TrialPoolMapFold, FoldsInIndexOrderWhateverTheJobCount) {
  for (std::size_t jobs : {1u, 4u}) {
    TrialPool pool(jobs);
    std::vector<std::size_t> folded;
    pool.map_fold(
        64, [](std::size_t i) { return i * 3; },
        [&folded](std::size_t i, std::size_t&& v) {
          EXPECT_EQ(v, i * 3);
          folded.push_back(i);
        });
    ASSERT_EQ(folded.size(), 64u);
    for (std::size_t i = 0; i < folded.size(); ++i) EXPECT_EQ(folded[i], i);
  }
}

TEST(TrialPoolMapFold, BoundsReorderBufferUnderSkewedCompletion) {
  // Trial 0 is the slow one; the backpressure window must keep workers
  // from racing through the whole grid while it gates the fold cursor.
  TrialPool pool(3);
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> max_started_before_fold{0};
  std::atomic<bool> first_folded{false};
  std::vector<std::size_t> folded;
  pool.map_fold(
      100,
      [&](std::size_t i) {
        const std::size_t s = ++started;
        if (!first_folded.load()) {
          std::size_t seen = max_started_before_fold.load();
          while (s > seen &&
                 !max_started_before_fold.compare_exchange_weak(seen, s)) {
          }
        }
        if (i == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
        }
        return i;
      },
      [&](std::size_t i, std::size_t&& v) {
        EXPECT_EQ(v, i);
        if (i == 0) first_folded = true;
        folded.push_back(i);
      });
  ASSERT_EQ(folded.size(), 100u);
  for (std::size_t i = 0; i < folded.size(); ++i) EXPECT_EQ(folded[i], i);
  // Window is 2*jobs = 6: while trial 0 blocked the cursor at 0, no
  // trial with index >= 6 may have started.
  EXPECT_LE(max_started_before_fold.load(), 6u);
}

TEST(TrialPoolMapFold, ThrowingTrialReleasesWaitersAndRethrows) {
  TrialPool pool(2);
  EXPECT_THROW(
      pool.map_fold(
          50,
          [](std::size_t i) -> std::size_t {
            if (i == 0) throw std::runtime_error("trial 0 failed");
            return i;
          },
          [](std::size_t, std::size_t&&) {}),
      std::runtime_error);
}

TEST(SeriesAccum, TruncatesToShortestRunAndMatchesAccum) {
  SeriesAccum acc;
  acc.add(std::vector<double>{1.0, 2.0, 3.0});
  acc.add(std::vector<double>{5.0, 6.0});  // shorter run drops index 2
  EXPECT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc.runs(), 2u);
  Accum ref;
  ref.add(1.0);
  ref.add(5.0);
  EXPECT_EQ(acc.mean(0), ref.mean());
  EXPECT_EQ(acc.stddev(0), ref.stddev());
  EXPECT_EQ(acc.means(), (std::vector<double>{ref.mean(), 4.0}));
}

// The streaming aggregation (SeriesFold over Welford accumulators) must
// emit the same bytes as the buffered path it replaced: materialise every
// run, average with plain sum/n, take the two-pass standard deviation.
// The reference implementation lives only here now — this test is the
// byte-equality assertion that allowed deleting it from bench_common.
bench::AggregatedSeries buffered_reference(
    const std::vector<bench::EstimationSeries>& runs) {
  bench::AggregatedSeries agg;
  std::size_t len = runs[0].t.size();
  for (const auto& r : runs) len = std::min(len, r.t.size());
  const auto n = static_cast<double>(runs.size());
  for (std::size_t i = 0; i < len; ++i) {
    double a = 0;
    double m = 0;
    double tr = 0;
    for (const auto& r : runs) {
      a += r.avg_err[i];
      m += r.max_err[i];
      tr += r.truth[i];
    }
    const double a_mean = a / n;
    const double m_mean = m / n;
    double a_var = 0;
    double m_var = 0;
    for (const auto& r : runs) {
      a_var += (r.avg_err[i] - a_mean) * (r.avg_err[i] - a_mean);
      m_var += (r.max_err[i] - m_mean) * (r.max_err[i] - m_mean);
    }
    const double denom = runs.size() > 1 ? n - 1 : 1;
    agg.t.push_back(runs[0].t[i]);
    agg.avg_err.push_back(a_mean);
    agg.avg_err_sd.push_back(std::sqrt(a_var / denom));
    agg.max_err.push_back(m_mean);
    agg.max_err_sd.push_back(std::sqrt(m_var / denom));
    agg.truth.push_back(tr / n);
  }
  return agg;
}

std::string printed_bytes(const bench::AggregatedSeries& agg) {
  std::string out;
  for (std::size_t i = 0; i < agg.t.size(); ++i) {
    out += strf("%.0f %.6f %.6f | %.0f %.6f %.6f\n", agg.t[i], agg.avg_err[i],
                agg.avg_err_sd[i], agg.t[i], agg.max_err[i],
                agg.max_err_sd[i]);
  }
  return out;
}

TEST(StreamingAggregation, MatchesBufferedPathBytes) {
  bench::BenchArgs args;
  args.runs = 4;
  args.seed = 13;
  const run::ExperimentSpec spec{.protocol = bench::croupier_proto(10, 25),
                                 .nodes = 48, .ratio = 0.25, .duration_s = 20};
  TrialPool pool(2);

  // Buffered reference: every run materialised, then aggregated.
  std::vector<bench::EstimationSeries> runs;
  for (std::size_t r = 0; r < args.runs; ++r) {
    runs.push_back(bench::run_spec_series(spec, trial_seed(args.seed, 0, r)));
  }
  const auto buffered = buffered_reference(runs);

  // Streaming path: the run_series_grid benches actually use.
  const auto streamed = bench::run_series_grid(
      pool, args, 1,
      [&](std::size_t, std::uint64_t seed) {
        return bench::run_spec_series(spec, seed);
      });
  ASSERT_EQ(streamed.size(), 1u);
  ASSERT_FALSE(streamed[0].t.empty());
  EXPECT_EQ(printed_bytes(buffered), printed_bytes(streamed[0]));
}

// The cornerstone guarantee: a fig1-style experiment fanned out over 4
// workers aggregates to *byte-identical* series as the same experiment on
// 1 worker. Uses the real bench plumbing (run_series_grid + specs +
// ResultSink) on a miniature world so it stays fast.
TEST(TrialGridDeterminism, FourJobsMatchSerialByteForByte) {
  bench::BenchArgs args;
  args.runs = 3;
  args.seed = 7;
  const std::pair<std::size_t, std::size_t> windows[] = {{10, 25}, {25, 50}};

  const auto run_experiment = [&](std::size_t jobs) {
    TrialPool pool(jobs);
    return bench::run_series_grid(
        pool, args, 2, [&](std::size_t p, std::uint64_t seed) {
          return bench::run_spec_series(
              {.protocol = bench::croupier_proto(windows[p].first,
                                                 windows[p].second),
               .nodes = 32, .ratio = 0.25, .duration_s = 15},
              seed);
        });
  };

  const auto serial = run_experiment(1);
  const auto parallel = run_experiment(4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    // Bitwise equality on the aggregated doubles — not near-equality:
    // identical trials summed in a fixed order must give identical bits.
    EXPECT_EQ(serial[p].t, parallel[p].t);
    EXPECT_EQ(serial[p].avg_err, parallel[p].avg_err);
    EXPECT_EQ(serial[p].avg_err_sd, parallel[p].avg_err_sd);
    EXPECT_EQ(serial[p].max_err, parallel[p].max_err);
    EXPECT_EQ(serial[p].max_err_sd, parallel[p].max_err_sd);
    EXPECT_EQ(serial[p].truth, parallel[p].truth);
    EXPECT_FALSE(serial[p].t.empty());
  }

  // And the emitted artifacts match byte for byte, spread column included.
  const auto emit = [&](const std::vector<bench::AggregatedSeries>& aggs,
                        const std::string& csv_path) {
    ResultSink sink(csv_path, nullptr);
    for (std::size_t p = 0; p < aggs.size(); ++p) {
      sink.series(strf("fig1a avg-error w=%zu", p), aggs[p].t,
                  aggs[p].avg_err, aggs[p].avg_err_sd);
    }
  };
  const std::string csv1 = ::testing::TempDir() + "det_jobs1.csv";
  const std::string csv4 = ::testing::TempDir() + "det_jobs4.csv";
  emit(serial, csv1);
  emit(parallel, csv4);
  const std::string contents1 = slurp(csv1);
  EXPECT_EQ(contents1, slurp(csv4));
  EXPECT_NE(contents1.find("series,"), std::string::npos);
  EXPECT_NE(contents1.find("spread,"), std::string::npos);
  std::remove(csv1.c_str());
  std::remove(csv4.c_str());
}

}  // namespace
}  // namespace croupier::exp
