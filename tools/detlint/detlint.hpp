// detlint — the determinism lint.
//
// A token-level static-analysis pass over src/, bench/, tools/, and
// tests/ (minus the deliberately-dirty detlint_fixtures/) that
// enforces the repo's byte-identity contract at the source level: same
// spec + seed => identical output bytes, regardless of --jobs or
// --world-jobs. The dynamic gates (scripts/check_determinism.sh, the
// twin-run tests) catch a violation only on inputs they happen to run;
// detlint bans the *constructs* that produce one.
//
// Rule catalog (ids are what suppressions name):
//   entropy         ambient entropy sources: std::rand/srand,
//                   std::random_device, drand48 family, getrandom,
//                   arc4random. All randomness must flow from
//                   sim::RngStream forks of the experiment seed.
//   wallclock       wall-clock reads: time(), clock(), gettimeofday,
//                   clock_gettime, system_clock/steady_clock/
//                   high_resolution_clock, __DATE__/__TIME__. Allowed
//                   only at suppressed wall-clock *reporting* sites
//                   (stderr timing lines), never in anything that feeds
//                   result bytes.
//   unordered-iter  iteration over std::unordered_map/unordered_set
//                   (range-for over a declared unordered variable or a
//                   call returning one, or explicit .begin()/.cbegin()
//                   loops). Hash-table iteration order is an accident of
//                   insertion history and libstdc++ internals; on a
//                   path that feeds output it decides output bytes.
//   ptr-key         std::map/std::set (or unordered) keyed on a pointer
//                   type: ASLR makes the ordering differ across runs.
//   raw-shuffle     std::shuffle/std::sample/std::random_shuffle —
//                   permutations must route through sim::RngStream
//                   (shuffle/sample_prefix/sample) so they consume the
//                   seeded stream.
//   float-accum     raw `+=` accumulation into a float/double inside a
//                   loop in src/metrics/ — order-sensitive summation in
//                   the layer that computes the published numbers. Use
//                   Welford (exp::Accum/SeriesAccum) or iterate a
//                   deterministically ordered sequence and say so in a
//                   suppression.
//   rng-lineage     RngStream fork-tag audit: two forks of the same
//                   receiver with the same literal tag yield *identical*
//                   streams (fork hashes (lineage, tag) and nothing
//                   else), and a static/thread_local RngStream is one
//                   stream shared across node-affine handlers — its draw
//                   order depends on batch scheduling.
//   suppression     meta-rule: a detlint:allow with an unknown rule id,
//                   a missing/too-short reason, or one that suppresses
//                   nothing.
//
// Cross-node writes from parallel-batch handlers are not a lint rule:
// the CROUPIER_CONFLICT_CHECK build (src/sim/conflict.hpp) checks them
// exactly, on the code the tests run.
//
// Suppression syntax (same line as the finding, or in the comment block
// that ends on the line directly above it — the reason may continue over
// several comment lines):
//   // detlint:allow(<rule>[,<rule>]) <reason, at least 8 characters>
//   // detlint:allow-file(<rule>) <reason>     — whole file
//
// Analysis is deliberately lexical (comments and string/char literals are
// blanked first): it is fast, has no compiler dependency, and is exact
// enough for this tree's idiom. The price is a conservative posture —
// anything flagged must be fixed or carry a written reason.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace detlint {

struct Finding {
  std::string file;  // as given to add_file (repo-relative by convention)
  int line = 0;
  std::string rule;
  std::string message;
  std::string function;  // enclosing function, "" if file scope
};

/// Stable ordering for reports: file, then line, then rule.
bool operator<(const Finding& a, const Finding& b);

struct Suppression {
  int line = 0;      // the directive's own line (same-line matching)
  int end_line = 0;  // last line of the comment block (line-above matching)
  bool file_level = false;
  std::vector<std::string> rules;
  std::string reason;
  bool used = false;
};

/// One function definition recognised by the heuristic parser.
struct FunctionDef {
  std::string name;  // unqualified
  std::size_t body_begin = 0;  // offsets into the blanked code
  std::size_t body_end = 0;
};

/// Per-file scan state: the blanked source plus everything the per-file
/// rule passes extracted from it.
struct FileScan {
  std::string path;
  std::string code;  // comments + string/char literals blanked to spaces
  std::vector<std::size_t> line_starts;
  std::vector<Suppression> suppressions;
  std::vector<FunctionDef> functions;
  std::set<std::string> unordered_vars;  // identifiers of unordered type
  std::set<std::string> unordered_fns;   // functions returning unordered
  std::set<std::string> float_vars;      // identifiers of float/double type
  std::vector<Finding> findings;         // pre-suppression
};

/// Blanks comments and string/char literals (layout preserved) and
/// collects detlint:allow suppressions from the comment text.
FileScan preprocess(const std::string& path, const std::string& content);

/// Runs the per-file passes (declaration harvesting, banned tokens,
/// iteration analysis, float accumulation, function extraction).
void analyze(FileScan& fs);

class Linter {
 public:
  /// Feeds one source file. `path` should be repo-relative with '/'
  /// separators; rule scoping (e.g. float-accum in src/metrics/ only)
  /// matches on it.
  void add_file(const std::string& path, const std::string& content);

  /// Cross-file linking: merges unordered-returning function names,
  /// re-runs iteration analysis with the merged set, attributes findings
  /// to functions, applies suppressions, and reports bad/unused
  /// suppressions. Returns all surviving findings, sorted.
  std::vector<Finding> run();

  [[nodiscard]] const std::vector<FileScan>& files() const { return files_; }

  /// The known rule ids (for --list-rules and suppression validation).
  static const std::set<std::string>& rule_ids();

 private:
  std::vector<FileScan> files_;
};

/// Formats a finding as "path:line: [rule] message ...".
std::string format(const Finding& f);

}  // namespace detlint
