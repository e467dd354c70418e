// CSV export of the metric recorders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "runtime/recorder.hpp"
#include "test_util.hpp"

namespace croupier::run {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CsvExport, EstimationSeries) {
  World world(fast_world_config(1), make_factory<core::Croupier>());
  populate(world, 5, 15);
  EstimationRecorder rec(world, {sim::sec(1), 2});
  rec.start(sim::sec(1));
  world.simulator().run_until(sim::sec(10));

  const std::string path = ::testing::TempDir() + "est_series.csv";
  ASSERT_TRUE(rec.write_csv(path));
  const std::string content = slurp(path);
  EXPECT_NE(content.find("t_seconds,avg_error,max_error,truth,nodes"),
            std::string::npos);
  // Header + one row per recorded point.
  const auto rows = std::count(content.begin(), content.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(rows), rec.series().size() + 1);
  std::remove(path.c_str());
}

TEST(CsvExport, GraphSeries) {
  World world(fast_world_config(2), make_factory<core::Croupier>());
  populate(world, 10, 0);
  GraphStatsRecorder rec(world, {sim::sec(2), 0});
  rec.start(sim::sec(2));
  world.simulator().run_until(sim::sec(9));

  const std::string path = ::testing::TempDir() + "graph_series.csv";
  ASSERT_TRUE(rec.write_csv(path));
  const std::string content = slurp(path);
  EXPECT_NE(content.find("avg_path_length"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(content.begin(), content.end(), '\n')),
            rec.series().size() + 1);
  std::remove(path.c_str());
}

TEST(CsvExport, UnwritablePathReturnsFalse) {
  World world(fast_world_config(3), make_factory<core::Croupier>());
  EstimationRecorder rec(world, {});
  EXPECT_FALSE(rec.write_csv("/nonexistent-dir/x/y.csv"));
}

}  // namespace
}  // namespace croupier::run
