#ifndef CCSIM_SUBSTRATE_REALTIME_H_
#define CCSIM_SUBSTRATE_REALTIME_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/message.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ccsim::substrate {

/// Drives an (unmodified) sim::Simulator against the wall clock: one tick
/// is one steady-clock microsecond. The protocol, client, server, and
/// storage code keep running as coroutine processes on a single event-loop
/// thread — exactly the calendar they run on under the DES substrate — but
/// every timer now elapses in real time, and messages arrive from real
/// sockets instead of the simulated medium.
///
/// Threading contract: the simulator and everything built on it (clients,
/// server, protocol state) are touched ONLY by the thread inside Run().
/// The loop owns an epoll set. Sockets registered with AddSource() are read
/// by the loop thread itself between calendar steps, so an inbound frame
/// goes from recv() to the model's mailbox with no thread hand-off. Other
/// threads and signal handlers reach the loop only through PostControl()
/// and Stop(), which wake it through an eventfd in the same set.
///
/// Pacing: between calendar steps the loop waits in epoll_pwait2() with
/// the next calendar entry as its deadline, so a readable socket, a posted
/// thunk or the deadline wakes it, whichever comes first. Deadlines within
/// kSpinThresholdTicks are polled with a zero timeout instead, yielding
/// between polls so single-core hosts still run the peer's loop.
class RealtimeSubstrate {
 public:
  /// Next-event distances at or under this (µs) spin instead of sleeping.
  static constexpr sim::Ticks kSpinThresholdTicks = 50;
  /// While outbound bytes are stuck (a full socket buffer, a connect in
  /// progress), the loop retries its flush at least this often (µs).
  static constexpr sim::Ticks kStuckFlushRetryTicks = 200;

  explicit RealtimeSubstrate(sim::Simulator* sim);
  ~RealtimeSubstrate();
  RealtimeSubstrate(const RealtimeSubstrate&) = delete;
  RealtimeSubstrate& operator=(const RealtimeSubstrate&) = delete;

  /// Routes inbound messages into the model (a node's net::Network::Receive,
  /// which pushes each onto its destination's inbox). Runs on the loop
  /// thread.
  void set_message_sink(std::function<void(net::MessagePtr)> sink) {
    sink_ = std::move(sink);
  }

  /// Invoked on the loop thread after each calendar step; a transport
  /// flushes its batched outbound buffers here. Returns true when every
  /// buffered byte reached the kernel — false keeps the loop on a short
  /// retry cadence instead of a long sleep.
  void set_flush_hook(std::function<bool()> hook) {
    flush_hook_ = std::move(hook);
  }

  /// Watches `fd` (non-blocking): whenever it is readable the loop calls
  /// `on_readable` between calendar steps, which should read one bounded
  /// chunk so an unread backlog stays in TCP flow control. Loop thread, or
  /// while the loop is not running.
  void AddSource(int fd, std::function<void()> on_readable);

  /// Stops watching `fd`; a no-op if it is not a source. Call before the
  /// fd is closed. Loop thread (a source may remove itself from its own
  /// callback), or while the loop is not running.
  void RemoveSource(int fd);

  /// Loop thread: hands one decoded inbound message to the sink.
  void Receive(net::MessagePtr msg);

  /// Wall-clock ticks since Run() started (0 before).
  sim::Ticks WallTicks() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Thread-safe: enqueues an arbitrary thunk to run on the loop thread.
  void PostControl(std::function<void()> fn);

  /// Thread-safe and async-signal-safe (a signal handler may call it): a
  /// lock-free atomic store plus one eventfd write(). Makes Run() return
  /// after the current calendar step.
  void Stop();

  /// Runs the event loop until `horizon` wall ticks elapse, Stop() is
  /// called, or the model requests a stop (sim::Simulator::RequestStop, as
  /// fired by the commit-target hook). Returns the number of calendar
  /// events processed. The simulated clock tracks the wall clock: between
  /// calendar entries the loop waits (interruptibly) until the earlier of
  /// the next fire time, a readable source and a posted thunk.
  std::uint64_t Run(sim::Ticks horizon);

  /// Waits up to `timeout` ticks (0 = just look) for readable sources or a
  /// wake, runs their callbacks, then any posted thunks. Returns true if
  /// anything was ready. Run() calls it between calendar steps; before
  /// Run(), TcpClientTransport::Connect drives its handshake with it.
  bool Poll(sim::Ticks timeout);

  sim::Simulator& sim() { return *sim_; }

 private:
  /// Waits until wall tick `wake`, a readable source, a thunk, or Stop():
  /// yield-polling when `wake` is close, else one blocking Poll().
  void WaitUntil(sim::Ticks wake);
  /// Runs the thunks queued by PostControl().
  void DrainControl();

  sim::Simulator* sim_;
  std::function<void(net::MessagePtr)> sink_;
  std::function<bool()> flush_hook_;
  std::chrono::steady_clock::time_point epoch_{};

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd written by PostControl() and Stop()
  /// Readable callbacks indexed by fd; null where no source is registered.
  /// Each callback lives behind its own pointer, so growing the table or
  /// removing a source never moves one that is running.
  std::vector<std::unique_ptr<std::function<void()>>> sources_;
  /// Callbacks removed since the last poll, destroyed after it.
  std::vector<std::unique_ptr<std::function<void()>>> retired_;

  std::mutex mu_;
  std::deque<std::function<void()>> control_;
  std::atomic<bool> stop_{false};
  static_assert(std::atomic<bool>::is_always_lock_free,
                "Stop() must stay async-signal-safe");
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_REALTIME_H_
