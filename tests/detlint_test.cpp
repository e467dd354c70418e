// Drives the detlint core over the fixture corpus in
// tests/detlint_fixtures/ — every rule gets a positive, a suppressed,
// and a not-a-finding case — plus the scoping, suppression-meta, and
// self-scan-clean behaviors the tree gate relies on.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "detlint.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string fixture(const std::string& name) {
  return slurp(std::string(DETLINT_FIXTURE_DIR) + "/" + name);
}

/// Scans one fixture under a chosen virtual path (rule scoping matches
/// on the path detlint is told, not where the bytes live on disk).
std::vector<detlint::Finding> scan(const std::string& virtual_path,
                                   const std::string& fixture_name) {
  detlint::Linter lint;
  lint.add_file(virtual_path, fixture(fixture_name));
  return lint.run();
}

std::vector<int> lines_of(const std::vector<detlint::Finding>& fs,
                          const std::string& rule) {
  std::vector<int> out;
  for (const auto& f : fs) {
    if (f.rule == rule) out.push_back(f.line);
  }
  return out;
}

TEST(DetlintRules, EntropySources) {
  const auto fs = scan("tests/detlint_fixtures/entropy.cpp", "entropy.cpp");
  EXPECT_EQ(lines_of(fs, "entropy"), (std::vector<int>{8, 12, 13}));
  EXPECT_EQ(fs.size(), 3u) << "only the three unsuppressed entropy reads";
}

TEST(DetlintRules, WallclockReads) {
  const auto fs = scan("tests/detlint_fixtures/wallclock.cpp", "wallclock.cpp");
  EXPECT_EQ(lines_of(fs, "wallclock"), (std::vector<int>{7, 11, 12}));
  EXPECT_EQ(fs.size(), 3u) << "the suppressed reporting read stays quiet";
}

TEST(DetlintRules, UnorderedIteration) {
  const auto fs =
      scan("tests/detlint_fixtures/unordered_iter.cpp", "unordered_iter.cpp");
  EXPECT_EQ(lines_of(fs, "unordered-iter"), (std::vector<int>{12, 18}));
  EXPECT_EQ(fs.size(), 2u);
  for (const auto& f : fs) {
    EXPECT_EQ(f.function, f.line == 12 ? "bad_range_for" : "bad_begin_walk");
  }
}

TEST(DetlintRules, PointerKeyedContainers) {
  const auto fs = scan("tests/detlint_fixtures/ptr_key.cpp", "ptr_key.cpp");
  EXPECT_EQ(lines_of(fs, "ptr-key"), (std::vector<int>{12, 13}));
  EXPECT_EQ(fs.size(), 2u) << "pointer *values* and the suppressed map pass";
}

TEST(DetlintRules, RawShuffle) {
  const auto fs =
      scan("tests/detlint_fixtures/raw_shuffle.cpp", "raw_shuffle.cpp");
  EXPECT_EQ(lines_of(fs, "raw-shuffle"), (std::vector<int>{8}));
  EXPECT_EQ(fs.size(), 1u)
      << "RngStream members and unqualified declarations are not std::shuffle";
}

TEST(DetlintRules, FloatAccumScopedToMetrics) {
  // Under src/metrics/ the raw += loop fires.
  const auto in_metrics = scan("src/metrics/float_accum.cpp", "float_accum.cpp");
  EXPECT_EQ(lines_of(in_metrics, "float-accum"), (std::vector<int>{9}));
  EXPECT_EQ(in_metrics.size(), 1u);

  // Outside src/metrics/ the rule is out of scope — which also turns the
  // fixture's allow directive into an unused-suppression meta finding.
  const auto elsewhere =
      scan("tests/detlint_fixtures/float_accum.cpp", "float_accum.cpp");
  EXPECT_TRUE(lines_of(elsewhere, "float-accum").empty());
  ASSERT_EQ(elsewhere.size(), 1u);
  EXPECT_EQ(elsewhere[0].rule, "suppression");
  EXPECT_NE(elsewhere[0].message.find("unused"), std::string::npos);
}

TEST(DetlintRules, RngLineage) {
  const auto fs = scan("tests/detlint_fixtures/rng_lineage.cpp",
                       "rng_lineage.cpp");
  // The duplicate (master_rng_, 0x1A7) pair (5) and the static stream
  // (12) fire; distinct tags (4), another receiver (6), a non-literal
  // tag (7), and the waived duplicate (9) are clean.
  EXPECT_EQ(lines_of(fs, "rng-lineage"), (std::vector<int>{5, 12}));
  EXPECT_EQ(fs.size(), 2u);
  for (const auto& f : fs) {
    if (f.line == 5) {
      EXPECT_NE(f.message.find("duplicate fork tag"), std::string::npos);
      EXPECT_NE(f.message.find("line 3"), std::string::npos);
    }
    if (f.line == 12) {
      EXPECT_NE(f.message.find("static"), std::string::npos);
    }
  }
}

TEST(DetlintRules, SuppressionMetaRule) {
  const auto fs = scan("tests/detlint_fixtures/suppression_meta.cpp",
                       "suppression_meta.cpp");
  // Bad directives never hide the underlying finding...
  EXPECT_EQ(lines_of(fs, "entropy"), (std::vector<int>{7, 12}));
  // ...and are findings themselves: unknown rule, short reason, unused.
  EXPECT_EQ(lines_of(fs, "suppression"), (std::vector<int>{6, 11, 15}));
  for (const auto& f : fs) {
    if (f.line == 6) {
      EXPECT_NE(f.message.find("unknown rule"), std::string::npos);
    }
    if (f.line == 11) {
      EXPECT_NE(f.message.find("reason"), std::string::npos);
    }
    if (f.line == 15) {
      EXPECT_NE(f.message.find("unused"), std::string::npos);
    }
  }
}

TEST(DetlintRules, FileLevelSuppression) {
  const auto fs =
      scan("tests/detlint_fixtures/allow_file.cpp", "allow_file.cpp");
  // allow-file(entropy) waives every entropy finding; other rules still
  // fire.
  EXPECT_TRUE(lines_of(fs, "entropy").empty());
  EXPECT_EQ(lines_of(fs, "wallclock"), (std::vector<int>{17}));
  EXPECT_EQ(fs.size(), 1u);
}

TEST(DetlintSelfScan, OwnSourcesClean) {
  // The lint holds itself to its own contract.
  detlint::Linter lint;
  for (const char* name :
       {"detlint.hpp", "preprocess.cpp", "rules.cpp", "main.cpp"}) {
    lint.add_file(std::string("tools/detlint/") + name,
                  slurp(std::string(DETLINT_SOURCE_DIR) + "/" + name));
  }
  const auto fs = lint.run();
  for (const auto& f : fs) ADD_FAILURE() << detlint::format(f);
}

TEST(DetlintFormat, CarriesFunction) {
  const auto fs =
      scan("tests/detlint_fixtures/unordered_iter.cpp", "unordered_iter.cpp");
  ASSERT_FALSE(fs.empty());
  const auto& f = fs.front();
  const std::string line = detlint::format(f);
  EXPECT_NE(line.find("unordered_iter.cpp:12"), std::string::npos);
  EXPECT_NE(line.find("[unordered-iter]"), std::string::npos);
  EXPECT_NE(line.find("(in 'bad_range_for')"), std::string::npos);
}

}  // namespace
