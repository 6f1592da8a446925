#ifndef CCSIM_SIM_TASK_H_
#define CCSIM_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/block_pool.h"
#include "util/macros.h"

namespace ccsim::sim {

/// Coroutine frames created on this thread, by kind. The promises'
/// `operator new` bump them; tests read them to gate frames per commit.
struct FrameCounts {
  std::uint64_t tasks = 0;
  std::uint64_t processes = 0;
};
inline constinit thread_local FrameCounts frame_counts{};

/// A lazy, value-returning coroutine awaited by simulation processes.
///
/// `Task<T>` lets model layers compose asynchronous operations naturally:
/// a `Process` (or another Task) writes `T v = co_await SomeTask(...)`.
/// The child starts when awaited (symmetric transfer), and when it
/// completes, control transfers back to the awaiting coroutine.
///
/// Ownership: the Task object owns the child frame and destroys it when the
/// Task goes out of scope in the parent frame. Because the parent frame
/// transitively owns children, destroying a root Process at
/// `Simulator::Shutdown()` reclaims the whole await chain. Frames come
/// from the per-thread block pool.
///
/// The frame rule: a call gets a frame only if it can suspend more than
/// once or must outlive its caller. A call that does some work and then
/// waits at most once returns the awaitable it would have awaited
/// (`Resource::Use`, `Network::SendOp`, another call's Task), and a call
/// whose fast path finishes without waiting returns `Task::Ready`, a Task
/// with no frame that completes without suspending. Either way the call's
/// synchronous part runs when it is called rather than when it is
/// awaited, so such calls are awaited where they are made.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept {
      std::coroutine_handle<> continuation = h.promise().continuation;
      return continuation ? continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  struct promise_type {
    T value{};
    std::coroutine_handle<> continuation;

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() noexcept { CCSIM_UNREACHABLE(); }

    static void* operator new(std::size_t bytes) {
      ++frame_counts.tasks;
      return util::BlockPool::Allocate(bytes);
    }
    static void operator delete(void* ptr, std::size_t bytes) noexcept {
      util::BlockPool::Free(ptr, bytes);
    }
  };

  /// A finished Task holding `value`: no frame, no suspension.
  static Task Ready(T value) {
    Task task(nullptr);
    task.ready_value_ = std::move(value);
    return task;
  }

  Task(Task&& other) noexcept
      : handle_(other.handle_), ready_value_(std::move(other.ready_value_)) {
    other.handle_ = nullptr;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) {
      handle_.destroy();
    }
  }

  /// Awaitable interface: starts the child and resumes the awaiter with the
  /// child's return value when it completes.
  bool await_ready() const noexcept { return !handle_; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;  // symmetric transfer: start the child now
  }
  T await_resume() {
    if (!handle_) {
      return std::move(ready_value_);
    }
    CCSIM_DCHECK(handle_.done());
    return std::move(handle_.promise().value);
  }

 private:
  explicit Task(Handle handle) : handle_(handle) {}
  Handle handle_;
  /// The value of a Ready task.
  T ready_value_{};
};

/// Task specialization for void-returning asynchronous operations.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept {
      std::coroutine_handle<> continuation = h.promise().continuation;
      return continuation ? continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  struct promise_type {
    std::coroutine_handle<> continuation;

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { CCSIM_UNREACHABLE(); }

    static void* operator new(std::size_t bytes) {
      ++frame_counts.tasks;
      return util::BlockPool::Allocate(bytes);
    }
    static void operator delete(void* ptr, std::size_t bytes) noexcept {
      util::BlockPool::Free(ptr, bytes);
    }
  };

  /// A finished Task: no frame, no suspension.
  static Task Ready() { return Task(nullptr); }

  Task(Task&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return !handle_; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() const noexcept {
    CCSIM_DCHECK(!handle_ || handle_.done());
  }

 private:
  explicit Task(Handle handle) : handle_(handle) {}
  Handle handle_;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_TASK_H_
