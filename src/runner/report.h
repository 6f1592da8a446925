#ifndef CCSIM_RUNNER_REPORT_H_
#define CCSIM_RUNNER_REPORT_H_

#include <cstdio>
#include <string>
#include <vector>

namespace ccsim::runner {

/// Plain-text table printer for bench output: fixed-width columns, a title
/// line, and an underline — the same rows/series the paper's figures plot.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print(std::FILE* out = stdout) const;

  /// Formats a double with `digits` decimals.
  static std::string Num(double value, int digits = 3);
  static std::string Int(std::uint64_t value);

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Measurement-scale knobs shared by the bench binaries:
///  - CCSIM_SCALE (float, default 1): multiplies the commit target and the
///    simulated-time cap; smaller = faster, noisier.
///  - CCSIM_SEED (int, default 1): base RNG seed.
///  - CCSIM_CHECK (0/1, default 0): run every configuration under the
///    consistency oracle (checker.enabled). The oracle is an observer, so
///    printed results must be byte-identical either way.
struct BenchScale {
  double scale = 1.0;
  std::uint64_t seed = 1;
  bool check = false;
};
BenchScale ReadBenchScale();

struct RunResult;

/// The counter table's CSV column headers, comma-separated, in table order.
std::string CsvHeader();

/// `result`'s CSV columns in CsvHeader() order, each in its row's format.
std::string CsvValues(const RunResult& result);

/// The run's counters as "name value" pairs, one line per source
/// (metrics, server, network, injector, checker), wrapped at 80 columns.
/// Each line starts with `prefix` and the padded source name. A source is
/// listed, with all its counters, when any of them is nonzero; Calc rows
/// are left out, so a default RunResult summarizes to the empty string.
std::string CounterSummary(const RunResult& result,
                           const std::string& prefix = "");

}  // namespace ccsim::runner

#endif  // CCSIM_RUNNER_REPORT_H_
