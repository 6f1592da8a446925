#ifndef CCSIM_RUNNER_METRICS_H_
#define CCSIM_RUNNER_METRICS_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "runner/counters.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace ccsim::check {
class Checker;
}  // namespace ccsim::check

namespace ccsim::runner {

/// Why a transaction attempt was aborted (Metrics::RecordAbort maps each
/// kind, in this order, to its counter).
enum class AbortKind {
  /// Deadlock victim (lock-based algorithms).
  kDeadlock,
  /// Read a stale cached page (no-wait locking).
  kStaleRead,
  /// Failed commit-time validation (certification).
  kCertification,
  /// RPC retransmissions exhausted (recovery mode; lossy network).
  kTimeout,
  /// The client or server crashed mid-attempt (recovery mode).
  kCrash,
};

/// Fixed-size log-scaled response-time histogram: 20 buckets per decade
/// (~12% resolution) spanning 1 µs .. 1000 s. Cheap enough to feed on
/// every commit, and mergeable, so a multi-shard load generator can
/// aggregate per-shard histograms into run-wide percentiles.
class LatencyHistogram {
 public:
  static constexpr int kBucketsPerDecade = 20;
  static constexpr int kDecades = 9;  // 1e-6 s .. 1e3 s
  static constexpr int kBuckets = kBucketsPerDecade * kDecades;

  void Add(double seconds) {
    ++counts_[BucketFor(seconds)];
    ++total_;
  }

  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) {
      counts_[static_cast<std::size_t>(i)] +=
          other.counts_[static_cast<std::size_t>(i)];
    }
    total_ += other.total_;
  }

  void Reset() {
    counts_.fill(0);
    total_ = 0;
  }

  std::uint64_t count() const { return total_; }

  /// Value at quantile `q` in [0, 1] (bucket midpoint in log space; 0 when
  /// empty).
  double Quantile(double q) const {
    if (total_ == 0) {
      return 0.0;
    }
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts_[static_cast<std::size_t>(i)];
      if (seen > rank) {
        return 1e-6 * std::pow(10.0, (static_cast<double>(i) + 0.5) /
                                         kBucketsPerDecade);
      }
    }
    return 1e3;
  }

 private:
  static int BucketFor(double seconds) {
    if (seconds <= 1e-6) {
      return 0;
    }
    const int bucket = static_cast<int>(
        std::log10(seconds * 1e6) * kBucketsPerDecade);
    return bucket >= kBuckets ? kBuckets - 1 : bucket;
  }

  std::array<std::uint64_t, static_cast<std::size_t>(kBuckets)> counts_{};
  std::uint64_t total_ = 0;
};

/// Run-wide measurement collector. Transaction response times and counters
/// accumulate in a measurement window that restarts at the end of warmup;
/// a separate lifetime response-time mean (never reset) drives the
/// ACL-style restart delay. The scalar counters are the counter table's
/// `metrics` rows (runner/counters.def): Count() records one, a getter
/// named like the row reads it, and ResetWindow() zeroes the Window rows.
class Metrics {
 public:
  explicit Metrics(sim::Simulator* simulator) : simulator_(simulator) {}
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Stops the simulation once this many commits land in the window.
  void set_stop_after_commits(std::uint64_t target) {
    stop_after_commits_ = target;
  }

  /// Adds `n` to one of the table's Metrics counters.
  void Count(Counter counter, std::uint64_t n = 1) {
    counts_[static_cast<std::size_t>(counter)] += n;
  }

#define CCSIM_FIELD(name, type, csv, format, scope, merge, source, read) \
  CCSIM_IF_METRICS(source, std::uint64_t name() const {                 \
    return counts_[static_cast<std::size_t>(Counter::name)];           \
  })
#include "runner/counters.def"

  void RecordCommit(sim::Ticks response, int attempts,
                    std::size_t type_index = 0) {
    const double seconds = sim::TicksToSeconds(response);
    lifetime_response_s_.Add(seconds);
    response_s_.Add(seconds);
    response_batches_.Add(seconds);
    response_hist_.Add(seconds);
    if (type_index >= per_type_response_s_.size()) {
      per_type_response_s_.resize(type_index + 1);
    }
    per_type_response_s_[type_index].Add(seconds);
    Count(Counter::commits);
    attempts_per_commit_.Add(static_cast<double>(attempts));
    if (stop_after_commits_ != 0 && commits() >= stop_after_commits_) {
      simulator_->RequestStop();
    }
  }

  void RecordAbort(AbortKind kind) {
    static constexpr Counter kKindCounter[] = {
        Counter::deadlock_aborts, Counter::stale_aborts,
        Counter::cert_aborts, Counter::timeout_aborts, Counter::crash_aborts};
    Count(Counter::aborts);
    Count(kKindCounter[static_cast<std::size_t>(kind)]);
  }

  /// Mean response time over the whole run (ticks), used as the mean of the
  /// exponential restart delay. Falls back to 100 ms before any commit.
  sim::Ticks RunningMeanResponseTicks() const {
    if (lifetime_response_s_.count() == 0) {
      return sim::kTicksPerSecond / 10;
    }
    return sim::SecondsToTicks(lifetime_response_s_.mean());
  }

  /// End-of-warmup reset of the measurement window.
  void ResetWindow() {
    response_s_.Reset();
    response_batches_.Reset();
    response_hist_.Reset();
    per_type_response_s_.clear();
    attempts_per_commit_.Reset();
#define CCSIM_FIELD(name, type, csv, format, scope, merge, source, read) \
  CCSIM_IF_METRICS(source, CCSIM_IF_WINDOW(scope,                       \
      counts_[static_cast<std::size_t>(Counter::name)] = 0;))
#include "runner/counters.def"
  }

  const sim::Tally& response_s() const { return response_s_; }
  /// Per-transaction-type response tallies (mixed workloads; index matches
  /// ExperimentConfig::mix order).
  const std::vector<sim::Tally>& per_type_response_s() const {
    return per_type_response_s_;
  }
  const sim::BatchMeans& response_batches() const { return response_batches_; }
  const LatencyHistogram& response_histogram() const { return response_hist_; }
  const sim::Tally& attempts_per_commit() const { return attempts_per_commit_; }

  /// The run's consistency checker front-end (checker.enabled runs only;
  /// null otherwise). Metrics is the one object every component already
  /// holds, so it doubles as the checker's distribution point — client,
  /// server, and protocol code reach it via `metrics().checker()` and
  /// treat null as "checking off".
  void set_checker(check::Checker* checker) { checker_ = checker; }
  check::Checker* checker() const { return checker_; }

 private:
  sim::Simulator* simulator_;
  std::uint64_t stop_after_commits_ = 0;
  sim::Tally lifetime_response_s_;
  sim::Tally response_s_;
  std::vector<sim::Tally> per_type_response_s_;
  sim::BatchMeans response_batches_{/*batch_size=*/50};
  LatencyHistogram response_hist_;
  sim::Tally attempts_per_commit_;
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counts_{};
  check::Checker* checker_ = nullptr;
};

}  // namespace ccsim::runner

#endif  // CCSIM_RUNNER_METRICS_H_
