#ifndef CCSIM_SIM_STATS_H_
#define CCSIM_SIM_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.h"

namespace ccsim::sim {

/// Streaming sample statistics (Welford). Used for response times, wait
/// times, message counts per transaction, etc.
class Tally {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Clears all accumulated samples (end-of-warmup reset).
  void Reset() { *this = Tally(); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Count, mean and maximum of tick durations (queueing delays), summed as
/// integers so a sample costs no floating-point work; the accessors
/// report seconds.
class TickTally {
 public:
  void Add(Ticks t) {
    ++count_;
    sum_ += t;
    max_ = std::max(max_, t);
  }

  std::uint64_t count() const { return count_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : TicksToSeconds(sum_) / static_cast<double>(count_);
  }
  double max() const { return TicksToSeconds(max_); }

 private:
  std::uint64_t count_ = 0;
  Ticks sum_ = 0;
  Ticks max_ = 0;
};

/// Time-weighted average of a piecewise-constant value (queue lengths,
/// busy-server counts). Callers report value changes with the current
/// simulated time.
class TimeWeighted {
 public:
  explicit TimeWeighted(double initial_value = 0.0)
      : value_(initial_value) {}

  /// Records a new value effective at time `now`.
  void Set(double value, Ticks now) {
    Accumulate(now);
    value_ = value;
  }

  void Add(double delta, Ticks now) { Set(value_ + delta, now); }

  double current() const { return value_; }

  /// Average over [start, now] where start is construction or last Reset.
  double TimeAverage(Ticks now) const {
    const Ticks span = now - start_;
    if (span <= 0) {
      return value_;
    }
    const double integral =
        integral_ + value_ * static_cast<double>(now - last_change_);
    return integral / static_cast<double>(span);
  }

  /// Restarts the averaging window at `now`, keeping the current value.
  void Reset(Ticks now) {
    start_ = now;
    last_change_ = now;
    integral_ = 0.0;
  }

 private:
  void Accumulate(Ticks now) {
    integral_ += value_ * static_cast<double>(now - last_change_);
    last_change_ = now;
  }

  double value_;
  Ticks start_ = 0;
  Ticks last_change_ = 0;
  double integral_ = 0.0;
};

/// Batch-means confidence intervals for steady-state output analysis.
/// Samples are grouped into fixed-size batches; the batch averages are
/// treated as approximately independent observations.
class BatchMeans {
 public:
  explicit BatchMeans(std::uint64_t batch_size = 50)
      : batch_size_(batch_size) {}

  void Add(double x) {
    batch_sum_ += x;
    if (++batch_count_ == batch_size_) {
      batch_means_.push_back(batch_sum_ / static_cast<double>(batch_size_));
      batch_sum_ = 0.0;
      batch_count_ = 0;
    }
  }

  std::size_t num_batches() const { return batch_means_.size(); }

  double Mean() const {
    if (batch_means_.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (double m : batch_means_) {
      sum += m;
    }
    return sum / static_cast<double>(batch_means_.size());
  }

  /// Half-width of a ~90% confidence interval on the mean; 0 with fewer
  /// than two complete batches.
  double HalfWidth90() const;

  void Reset() {
    batch_means_.clear();
    batch_sum_ = 0.0;
    batch_count_ = 0;
  }

 private:
  std::uint64_t batch_size_;
  std::uint64_t batch_count_ = 0;
  double batch_sum_ = 0.0;
  std::vector<double> batch_means_;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_STATS_H_
