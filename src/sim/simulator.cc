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
  std::uint64_t processed = 0;
  stop_requested_ = false;
  while (!times_.empty() && !stop_requested_) {
    // Copy the heap root: the fired callback may push entries and
    // reallocate times_. New pushes sort strictly after the root (their
    // time is >= now_ and their bucket order is later), so the root entry
    // stays the minimum until its bucket is fully drained.
    const TimesEntry top = times_.front();
    if (top.when > until) {
      break;
    }
    CCSIM_DCHECK(top.when >= now_);
    now_ = top.when;
    {
      // Copy the payload before firing: the callback may append to this
      // very bucket (a same-time push) and reallocate its vector.
      Bucket& bucket = buckets_[top.bucket];
      EntryPayload payload = bucket.items[bucket.cursor];
      ++bucket.cursor;
      Fire(payload);
    }
    --pending_;
    ++processed;
    ++events_processed_;
    // Re-acquire: Fire may have grown buckets_.
    Bucket& bucket = buckets_[top.bucket];
    if (bucket.cursor == bucket.items.size()) {
      HeapPopMin();
      FreeBucket(top.when, top.bucket);
    }
  }
  if (times_.empty() || stop_requested_) {
    // Clock does not advance past the last event.
    return processed;
  }
  now_ = until;
  return processed;
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
  for (const TimesEntry& entry : times_) {
    Bucket& bucket = buckets_[entry.bucket];
    for (std::size_t i = bucket.cursor; i < bucket.items.size(); ++i) {
      if (bucket.items[i].drop != nullptr) {
        bucket.items[i].drop(bucket.items[i]);
      }
    }
    bucket.items.clear();
    bucket.cursor = 0;
  }
  times_.clear();
  // Rebuild the free list: every pooled bucket is empty again.
  free_buckets_.clear();
  for (std::uint32_t i = 0; i < buckets_.size(); ++i) {
    free_buckets_.push_back(i);
  }
  for (Memo& memo : memo_) {
    memo.bucket = kNoBucket;
  }
  pending_ = 0;
  shutting_down_ = false;
}

}  // namespace ccsim::sim
