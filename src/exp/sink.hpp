// Uniform result emission for the figure benches.
//
// ResultSink writes the gnuplot text blocks the plots consume (stdout,
// same "# <name>" + "x y" row format the benches always printed) and
// optionally mirrors every data point into a machine-readable CSV file
// (--csv=PATH). All emission happens on the calling thread after
// parallel_map has returned every result in index order, so both outputs
// are byte-identical for any --jobs value.
//
// CSV schema (one file per bench invocation, header included):
//   kind,block,x,y
//   series,"fig1a avg-error alpha=10 gamma=25",42,0.012345
//   spread,"fig1a avg-error alpha=10 gamma=25",42,0.000317
//   value,"summary alpha=10 gamma=25","steady avg-err",0.00123
//
// `spread` rows carry the across-runs standard deviation of the `series`
// (or `value`) row with the same block and x — the error bars the
// benches emit when --runs > 1. Consumers that filter kind == series see
// the pre-spread schema unchanged.
#pragma once

#include <cstddef>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace croupier::exp {

/// printf into a std::string (series/block names are built from sweep
/// parameters; the benches' printf formats are kept verbatim).
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...);

/// Streaming mean / standard deviation over per-run scalars (Welford's
/// update, numerically stable). Benches feed one value per run in run
/// order, then print mean() beside spread columns.
class Accum {
 public:
  void add(double v) {
    ++n_;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
  }

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }

  /// Sample standard deviation (n-1 denominator); 0 below two samples.
  [[nodiscard]] double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Pointwise aggregation of one series column over repeated runs: an
/// Accum per sample index, fed each run's column in run order, then read
/// through means()/stddevs(). bench::aggregate (fig1-5) and croupier-lab
/// run each point's series through it. Runs sampled on
/// the same grid can still differ in length by a point or two (a
/// recorder tick racing the horizon); indices beyond the shortest run
/// seen are dropped, matching the buffered path's min-length truncation.
/// An index surviving truncation has, by construction, absorbed every
/// run.
class SeriesAccum {
 public:
  /// Folds one run's column. Must be called in run order, which the
  /// grid's index order gives, so aggregation is byte-identical for
  /// every worker count.
  void add(std::span<const double> ys);

  /// Points per aggregated series: min length over the added runs.
  [[nodiscard]] std::size_t size() const { return cols_.size(); }
  [[nodiscard]] std::size_t runs() const { return runs_; }

  [[nodiscard]] double mean(std::size_t i) const { return cols_[i].mean(); }
  [[nodiscard]] double stddev(std::size_t i) const {
    return cols_[i].stddev();
  }
  [[nodiscard]] std::vector<double> means() const;
  [[nodiscard]] std::vector<double> stddevs() const;

 private:
  std::vector<Accum> cols_;
  std::size_t runs_ = 0;
};

class ResultSink {
 public:
  /// csv_path empty = no CSV. The file is created eagerly so a bad path
  /// fails at startup instead of after minutes of simulation. `out` is
  /// the text destination (nullptr silences text output — used by
  /// tests).
  explicit ResultSink(std::string csv_path = {}, std::FILE* out = stdout);
  ~ResultSink();

  ResultSink(const ResultSink&) = delete;
  ResultSink& operator=(const ResultSink&) = delete;

  [[nodiscard]] bool csv_enabled() const { return csv_ != nullptr; }

  /// "# <text>" comment line (headers, summaries). Text output only.
  void comment(const std::string& text);

  /// Verbatim text line (the benches' aligned table rows).
  void raw(const std::string& line);

  /// Blank separator line. Text output only.
  void blank();

  /// gnuplot series block: "# <name>", one "<x> <y>" row per point, then
  /// a blank line. Mirrored to CSV as `series` rows.
  void series(const std::string& name, std::span<const double> x,
              std::span<const double> y, const char* x_fmt = "%.0f",
              const char* y_fmt = "%.6f");

  /// Series with error bars: "<x> <y> <sd>" rows (gnuplot `with
  /// errorbars` reads exactly this), mirrored to CSV as paired
  /// `series` + `spread` rows.
  void series(const std::string& name, std::span<const double> x,
              std::span<const double> y, std::span<const double> sd,
              const char* x_fmt = "%.0f", const char* y_fmt = "%.6f");

  /// Named scalar (summary/table cells). CSV only — the benches print
  /// their own aligned tables via raw()/comment().
  void value(const std::string& block, const std::string& key, double v);

  /// Across-runs standard deviation of the same block/key. CSV only,
  /// kind `spread`.
  void spread(const std::string& block, const std::string& key, double sd);

 private:
  void csv_row(const char* kind, const std::string& block,
               const std::string& x, const std::string& y);

  std::FILE* out_ = nullptr;
  std::FILE* csv_ = nullptr;
};

}  // namespace croupier::exp
