// Shared declarations of the ccbench driver: the result report every
// workload fills in, the workload configurations, and the per-layer replays.
#ifndef CCBENCH_CCBENCH_H_
#define CCBENCH_CCBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "config/params.h"
#include "net/message.h"

namespace ccbench {

/// Everything one workload run reports. Metrics are (name, value, unit)
/// triples and are read back by name only.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness failure; the run then exits non-zero.
  void Fail(const std::string& what);
  void Digest(const std::string& label, std::uint64_t digest);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool ok() const { return errors_.empty(); }
  /// Prints the report as one JSON object on one line.
  void PrintJson(const std::string& workload) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::pair<std::string, std::uint64_t>> digests_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process user+sys CPU seconds so far (getrusage).
double CpuSeconds();
/// Peak resident set of this process in MB (ru_maxrss).
double PeakRssMb();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// FNV-1a over `text`.
std::uint64_t Fnv1a(const std::string& text);

void RunSimWorkload(const Options& options,
                    const ccsim::config::ExperimentConfig& base,
                    Report* report);
void RunRealWorkload(const Options& options,
                     const ccsim::config::ExperimentConfig& base,
                     Report* report);

// --- per-layer replays (replay.cc) -----------------------------------------
// Each replay regenerates the workload's own transactions with
// workload::WorkloadGenerator (same config, same per-client RNG streams as
// the runners) and drives one layer's public API with them, from outside.

struct ReplayTimes {
  double next_xact_ns = 0;  // WorkloadGenerator::NextTransaction per call
  double access_ns = 0;     // ClientCache Touch/Insert/Pin per page access
  double end_xact_ns = 0;   // DirtyPages + EndTransaction per attempt end
  double lock_ns = 0;       // LockManager Acquire + ReleaseAll per lock
  double check_ns = 0;      // Checker::OnCommit per commit, Finish amortised;
                            // 0 when the config's checker is off
};

/// Replays `transactions` specs drawn round-robin over the config's clients,
/// `reps` times, and reports the median per-operation times.
ReplayTimes ReplayLayers(const ccsim::config::ExperimentConfig& config,
                         int transactions, int reps, Report* report);

/// Median ns per EncodeMessage + DecodeMessage round trip over `samples`.
/// A message that does not decode back to its type and lists fails the run.
double ReplayCodec(const std::vector<ccsim::net::Message>& samples,
                   std::uint32_t page_payload_bytes, int reps,
                   Report* report);

}  // namespace ccbench

#endif  // CCBENCH_CCBENCH_H_
