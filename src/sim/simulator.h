#ifndef CCSIM_SIM_SIMULATOR_H_
#define CCSIM_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/process.h"
#include "sim/time.h"
#include "util/macros.h"

namespace ccsim::sim {

/// The discrete-event simulation kernel: a simulated clock, an event
/// calendar, and an intrusive list of live process coroutines.
///
/// Usage:
/// ```
///   Simulator sim;
///   sim.Spawn(MyProcess(sim, ...));
///   sim.Run(SecondsToTicks(100));
///   ...collect statistics...
///   sim.Shutdown();  // destroy still-suspended processes
/// ```
///
/// Determinism: events fire in `(when, arrival)` order, so runs with the
/// same seed are bit-reproducible.
///
/// The calendar has two parts. Entries for a later time go into a 4-ary
/// min-heap of whole `(when, seq, payload)` events ordered by
/// `(when, seq)`. Entries for `Now()` (a `Spawn`, a `Delay(0)`, every
/// wakeup an Event/Mailbox/Resource schedules) append to a FIFO lane
/// instead, with no sift. The heap entries due at `Now()` were all pushed
/// before the clock got there, so `Run` fires those first, then drains the
/// lane, and only then advances the clock: the two parts together fire in
/// exactly `(when, arrival)` order. Both are vectors that keep their
/// capacity, so the steady state is allocation-free.
///
/// The dominant payload kind stores a raw coroutine handle (every
/// `Delay`/`ScheduleResumeAt`); closure payloads store trivially copyable
/// captures in a 32-byte inline buffer. Neither kind heap-allocates.
/// Closures that are too big (or not trivially copyable) fall back to a
/// heap allocation — rare by construction, and still correct.
class Simulator {
 public:
  /// Closure captures up to this size (trivially copyable) are stored
  /// inline in the calendar entry; larger ones take the heap fallback.
  static constexpr std::size_t kInlineClosureBytes = 32;

  Simulator() {
    heap_.reserve(64);
    lane_.reserve(64);
  }
  ~Simulator() { Shutdown(); }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Ticks Now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= Now()).
  template <typename F>
  void ScheduleAt(Ticks when, F&& fn) {
    using Fn = std::decay_t<F>;
    CCSIM_DCHECK(when >= now_);
    EntryPayload payload;
    if constexpr (sizeof(Fn) <= kInlineClosureBytes &&
                  std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn>) {
      ::new (static_cast<void*>(payload.storage.inline_bytes))
          Fn(std::forward<F>(fn));
      payload.invoke = [](EntryPayload& p) {
        (*std::launder(reinterpret_cast<Fn*>(p.storage.inline_bytes)))();
      };
      payload.drop = nullptr;
    } else {
      payload.storage.ptr = new Fn(std::forward<F>(fn));
      payload.invoke = [](EntryPayload& p) {
        Fn* fn_ptr = static_cast<Fn*>(p.storage.ptr);
        (*fn_ptr)();
        delete fn_ptr;
      };
      payload.drop = [](EntryPayload& p) {
        delete static_cast<Fn*>(p.storage.ptr);
      };
    }
    Push(when, payload);
  }

  /// Schedules `fn` to run `delay` ticks from now.
  template <typename F>
  void ScheduleAfter(Ticks delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules resumption of a suspended coroutine at absolute time `when`.
  /// The fast path: no closure, no allocation — the handle is the payload.
  void ScheduleResumeAt(Ticks when, std::coroutine_handle<> handle) {
    CCSIM_DCHECK(when >= now_);
    EntryPayload payload;
    payload.invoke = nullptr;
    payload.drop = nullptr;
    payload.storage.ptr = handle.address();
    Push(when, payload);
  }

  /// Spawns a simulation process; its first step runs at the current time
  /// (after already-scheduled events at this time).
  void Spawn(Process process);

  /// Awaitable that suspends the calling process for `delay` ticks.
  /// `Delay(0)` still suspends and requeues (a cooperative yield).
  auto Delay(Ticks delay) {
    struct Awaiter {
      Simulator* simulator;
      Ticks delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        simulator->ScheduleResumeAt(simulator->now_ + delay, handle);
      }
      void await_resume() const noexcept {}
    };
    CCSIM_DCHECK(delay >= 0);
    return Awaiter{this, delay};
  }

  /// Runs the event loop until the calendar is empty, `until` is passed, or
  /// RequestStop() is called. Returns the number of events processed.
  std::uint64_t Run(Ticks until);

  /// Asks Run() to return after the current event completes.
  void RequestStop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Destroys all still-suspended process frames. Called automatically from
  /// the destructor; harnesses call it earlier so frames are destroyed while
  /// the rest of the model is still alive.
  void Shutdown();

  /// Number of live (spawned, not yet completed) processes.
  std::size_t live_process_count() const { return live_count_; }

  /// Total events processed so far (for micro-benchmarks and tests).
  std::uint64_t events_processed() const { return events_processed_; }

  // --- realtime-substrate driver support. The DES substrate never calls
  // these; they exist so a wall-clock-paced loop can sleep until the next
  // event and keep the clock aligned with real time between events. ---

  /// Fire time of the earliest pending calendar entry, or -1 when empty.
  Ticks PeekNextTime() const {
    if (lane_head_ != lane_.size()) {
      return now_;
    }
    return heap_.empty() ? Ticks{-1} : heap_.front().when;
  }

  /// Advances the clock to `t` without firing anything (no-op if t <= Now()).
  /// The caller must already have fired every event at or before `t` —
  /// i.e. call Run(t) first; any remaining entries are then strictly later.
  void AdvanceTo(Ticks t) {
    if (t > now_) {
      CCSIM_DCHECK(lane_head_ == lane_.size() &&
                   (heap_.empty() || heap_.front().when > t));
      now_ = t;
    }
  }

  /// Pending calendar entries (tests / diagnostics).
  std::size_t calendar_size() const {
    return heap_.size() + (lane_.size() - lane_head_);
  }

 private:
  friend struct Process::promise_type;

  /// One scheduled unit of work. `invoke == nullptr` tags the
  /// coroutine-resume fast path with the handle address in `storage.ptr`;
  /// otherwise `invoke` runs (and, for the heap fallback, frees) the
  /// stored closure, and `drop` (non-null only for the heap fallback)
  /// frees it without running — used when Shutdown() discards pending
  /// events.
  struct EntryPayload {
    void (*invoke)(EntryPayload&);
    void (*drop)(EntryPayload&);
    union Storage {
      void* ptr;
      alignas(8) unsigned char inline_bytes[kInlineClosureBytes];
    } storage;
  };
  static_assert(sizeof(EntryPayload) == 48);
  static_assert(std::is_trivially_copyable_v<EntryPayload>);

  /// A heap entry: a payload due at a later time than it was pushed.
  /// `seq` is the push order, the tie-break between equal times.
  struct Entry {
    Ticks when;
    std::uint64_t seq;
    EntryPayload payload;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  static bool Before(const Entry& a, const Entry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  // Index-based 4-ary min-heap over heap_: half the depth of a binary
  // heap, so a pop moves the 64-byte entries half as many times.
  static constexpr std::size_t kHeapArity = 4;

  void HeapPush(const Entry& entry) {
    std::size_t index = heap_.size();
    heap_.push_back(entry);
    while (index > 0) {
      const std::size_t parent = (index - 1) / kHeapArity;
      if (!Before(entry, heap_[parent])) {
        break;
      }
      heap_[index] = heap_[parent];
      index = parent;
    }
    heap_[index] = entry;
  }

  /// Removes the minimum entry and returns its payload.
  EntryPayload HeapPop() {
    const EntryPayload top = heap_.front().payload;
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size == 0) {
      return top;
    }
    std::size_t index = 0;
    for (;;) {
      const std::size_t first_child = kHeapArity * index + 1;
      if (first_child >= size) {
        break;
      }
      std::size_t best = first_child;
      const std::size_t end =
          first_child + kHeapArity < size ? first_child + kHeapArity : size;
      for (std::size_t child = first_child + 1; child < end; ++child) {
        if (Before(heap_[child], heap_[best])) {
          best = child;
        }
      }
      if (!Before(heap_[best], last)) {
        break;
      }
      heap_[index] = heap_[best];
      index = best;
    }
    heap_[index] = last;
    return top;
  }

  void Push(Ticks when, const EntryPayload& payload) {
    if (when == now_) {
      lane_.push_back(payload);
    } else {
      HeapPush(Entry{when, next_seq_++, payload});
    }
  }

  static void Fire(EntryPayload& payload) {
    if (payload.invoke == nullptr) {
      std::coroutine_handle<>::from_address(payload.storage.ptr).resume();
    } else {
      payload.invoke(payload);
    }
  }

  /// Removes a finishing or destroyed process from the live list.
  void Unlink(Process::promise_type* promise) {
    if (promise->prev != nullptr) {
      promise->prev->next = promise->next;
    } else {
      live_head_ = promise->next;
    }
    if (promise->next != nullptr) {
      promise->next->prev = promise->prev;
    }
    --live_count_;
  }

  Ticks now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
  bool shutting_down_ = false;
  /// Entries due after the time they were pushed at.
  std::vector<Entry> heap_;
  /// Entries pushed for `now_`, in push order; [lane_head_, size) are
  /// pending. Emptied (keeping its capacity) whenever it drains.
  std::vector<EntryPayload> lane_;
  std::size_t lane_head_ = 0;
  /// Live (spawned, not yet finished) processes, newest first.
  Process::promise_type* live_head_ = nullptr;
  std::size_t live_count_ = 0;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_SIMULATOR_H_
