#include "sim/simulator.h"

#include <cstdio>
#include <cstdlib>

namespace ccsim::sim {

void Process::promise_type::unhandled_exception() noexcept {
  // The library is exception-free by policy; an escaped exception means the
  // simulation state is unrecoverable.
  std::fprintf(stderr, "ccsim: unhandled exception escaped a sim process\n");
  std::abort();
}

Process::promise_type::~promise_type() {
  if (simulator != nullptr) {
    simulator->Unlink(this);
  }
}

void Simulator::Spawn(Process process) {
  CCSIM_CHECK_MSG(!shutting_down_, "Spawn during shutdown");
  Process::Handle handle = process.handle();
  CCSIM_CHECK(handle);
  Process::promise_type& promise = handle.promise();
  promise.simulator = this;
  promise.next = live_head_;
  if (live_head_ != nullptr) {
    live_head_->prev = &promise;
  }
  live_head_ = &promise;
  ++live_count_;
  // First step runs at the current time, in FIFO order with other events.
  ScheduleResumeAt(now_, handle);
}

std::uint64_t Simulator::Run(Ticks until) {
  const std::uint64_t first = events_processed_;
  stop_requested_ = false;
  if (until < now_) {
    return 0;
  }
  while (!stop_requested_) {
    // Copy the payload out before firing: the callback may push, and a
    // push can reallocate either vector.
    EntryPayload payload;
    if (!heap_.empty() && heap_.front().when == now_) {
      // Pushed before the clock reached now_: earlier than the lane.
      payload = HeapPop();
    } else if (lane_head_ != lane_.size()) {
      payload = lane_[lane_head_];
      if (++lane_head_ == lane_.size()) {
        lane_.clear();
        lane_head_ = 0;
      }
    } else if (!heap_.empty() && heap_.front().when <= until) {
      now_ = heap_.front().when;
      payload = HeapPop();
    } else {
      break;
    }
    Fire(payload);
    ++events_processed_;
  }
  // The clock does not advance past the last event when the calendar
  // drains, nor past a stop.
  if (!stop_requested_ && !heap_.empty()) {
    now_ = until;
  }
  return events_processed_ - first;
}

void Simulator::Shutdown() {
  shutting_down_ = true;
  // Destroying a frame unlinks it from the live list (via ~promise_type),
  // so keep destroying the head until the list is empty.
  while (live_head_ != nullptr) {
    Process::Handle::from_promise(*live_head_).destroy();
  }
  // Drop pending events without firing them; they may reference handles
  // that no longer exist. Only heap-fallback closures own memory.
  for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
    if (lane_[i].drop != nullptr) {
      lane_[i].drop(lane_[i]);
    }
  }
  for (Entry& entry : heap_) {
    if (entry.payload.drop != nullptr) {
      entry.payload.drop(entry.payload);
    }
  }
  lane_.clear();
  lane_head_ = 0;
  heap_.clear();
  shutting_down_ = false;
}

}  // namespace ccsim::sim
