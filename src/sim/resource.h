#ifndef CCSIM_SIM_RESOURCE_H_
#define CCSIM_SIM_RESOURCE_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>

#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "util/macros.h"

namespace ccsim::sim {

/// A CSIM-style "facility": `num_servers` identical servers with a single
/// FCFS wait queue. Models CPUs, disks, and the network medium.
///
/// Two usage styles:
///  - `co_await res.Use(t)`: queue FCFS, hold one server for `t` ticks,
///    release (the common case: CPU bursts, disk operations, packet
///    transmissions).
///  - `co_await res.Acquire(); ...arbitrary awaits...; res.Release()`: hold a
///    server across other events.
///
/// Statistics: time-weighted busy-server count (utilization), time-weighted
/// queue length, and a tally of queueing delays.
class Resource {
 public:
  Resource(Simulator* simulator, std::string name, int num_servers)
      : simulator_(simulator), name_(std::move(name)),
        num_servers_(num_servers) {
    CCSIM_CHECK(num_servers >= 1);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  const std::string& name() const { return name_; }
  int num_servers() const { return num_servers_; }
  int busy_servers() const { return busy_; }
  std::size_t queue_length() const { return queue_.size(); }

  /// Awaitable: FCFS-queue for a server, hold it for `service_time`, then
  /// resume the caller with the server released.
  auto Use(Ticks service_time) {
    struct Awaiter {
      Resource* resource;
      Ticks service_time;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        resource->Enqueue(Job{handle, service_time, /*manual_hold=*/false,
                              resource->simulator_->Now()});
      }
      void await_resume() const noexcept {}
    };
    CCSIM_DCHECK(service_time >= 0);
    return Awaiter{this, service_time};
  }

  /// Awaitable: FCFS-queue for a server and resume holding it. The caller
  /// must eventually call Release().
  auto Acquire() {
    struct Awaiter {
      Resource* resource;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        resource->Enqueue(Job{handle, 0, /*manual_hold=*/true,
                              resource->simulator_->Now()});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Releases a server obtained via Acquire().
  void Release();

  /// Fraction of server capacity in use, averaged since the last stats
  /// reset.
  double Utilization(Ticks now) const {
    return busy_integral_.TimeAverage(now) / num_servers_;
  }
  double MeanQueueLength(Ticks now) const {
    return queue_integral_.TimeAverage(now);
  }
  const TickTally& wait_times() const { return wait_times_; }
  std::uint64_t completions() const { return completions_; }

  /// Restarts statistic windows (end-of-warmup).
  void ResetStats(Ticks now) {
    busy_integral_.Reset(now);
    queue_integral_.Reset(now);
    wait_times_ = {};
    completions_ = 0;
  }

 private:
  struct Job {
    std::coroutine_handle<> handle;
    Ticks service_time;
    bool manual_hold;
    Ticks enqueued_at;
  };

  void Enqueue(Job job);
  void Start(Job job);
  void FinishTimed(std::coroutine_handle<> handle);
  void StartNextIfAny();

  Simulator* simulator_;
  std::string name_;
  int num_servers_;
  int busy_ = 0;
  std::deque<Job> queue_;
  TimeWeighted busy_integral_;
  TimeWeighted queue_integral_;
  TickTally wait_times_;
  std::uint64_t completions_ = 0;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_RESOURCE_H_
