#include "sim/resource.h"

namespace ccsim::sim {

void Resource::Enqueue(Job job) {
  const Ticks now = simulator_->Now();
  if (busy_ < num_servers_) {
    Start(job);
    return;
  }
  queue_.push_back(job);
  queue_integral_.Set(static_cast<double>(queue_.size()), now);
}

void Resource::Start(Job job) {
  const Ticks now = simulator_->Now();
  ++busy_;
  busy_integral_.Set(static_cast<double>(busy_), now);
  wait_times_.Add(now - job.enqueued_at);
  if (job.manual_hold) {
    // Caller holds the server until Release(); hand control back now.
    simulator_->ScheduleResumeAt(now, job.handle);
    return;
  }
  std::coroutine_handle<> handle = job.handle;
  simulator_->ScheduleAt(now + job.service_time,
                         [this, handle] { FinishTimed(handle); });
}

void Resource::FinishTimed(std::coroutine_handle<> handle) {
  const Ticks now = simulator_->Now();
  --busy_;
  busy_integral_.Set(static_cast<double>(busy_), now);
  ++completions_;
  StartNextIfAny();
  handle.resume();
}

void Resource::Release() {
  const Ticks now = simulator_->Now();
  CCSIM_CHECK(busy_ > 0);
  --busy_;
  busy_integral_.Set(static_cast<double>(busy_), now);
  ++completions_;
  StartNextIfAny();
}

void Resource::StartNextIfAny() {
  if (queue_.empty() || busy_ >= num_servers_) {
    return;
  }
  Job next = queue_.front();
  queue_.pop_front();
  queue_integral_.Set(static_cast<double>(queue_.size()), simulator_->Now());
  Start(next);
}

}  // namespace ccsim::sim
