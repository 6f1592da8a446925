#ifndef CCSIM_SUBSTRATE_REALTIME_H_
#define CCSIM_SUBSTRATE_REALTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/message.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/spsc_ring.h"

namespace ccsim::substrate {

class RealtimeSubstrate;

/// One producer's lane into the loop thread: a bounded SPSC ring of
/// net::Message slots. A socket reader thread decodes frames directly
/// into reserved slots (BeginPush/CommitPush) and the substrate loop
/// drains whole batches between calendar steps — per-channel FIFO is
/// exactly ring order, so per-connection delivery order is preserved.
/// A full ring stalls the producer (backpressure propagates into TCP
/// flow control); nothing is dropped.
class InboundChannel {
 public:
  /// Producer: reserves the next slot, waiting (yield, then short sleeps)
  /// while the ring is full. Returns nullptr once the channel is closed
  /// or the substrate is stopping — the producer should bail out.
  net::Message* BeginPush();

  /// Producer: publishes the slot filled after BeginPush() and wakes the
  /// loop thread if it is sleeping.
  void CommitPush();

  /// Marks the channel closed: BeginPush() fails from now on, and the
  /// substrate retires the channel once the ring is drained. Callable
  /// from any thread (producer on EOF, or the transport on Close()).
  void Close();

  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  friend class RealtimeSubstrate;
  InboundChannel(RealtimeSubstrate* substrate, std::size_t capacity)
      : ring_(capacity), substrate_(substrate) {}

  util::SpscRing<net::Message> ring_;
  RealtimeSubstrate* substrate_;
  std::atomic<bool> closed_{false};
};

/// Drives an (unmodified) sim::Simulator against the wall clock: one tick
/// is one steady-clock microsecond. The protocol, client, server, and
/// storage code keep running as coroutine processes on a single event-loop
/// thread — exactly the calendar they run on under the DES substrate — but
/// every timer now elapses in real time, and messages arrive from real
/// sockets instead of the simulated medium.
///
/// Threading contract: the simulator and everything built on it (clients,
/// server, protocol state) are touched ONLY by the thread inside Run().
/// Other threads (socket readers, signal watchers) communicate exclusively
/// through InboundChannels (the batched fast path) or
/// PostMessage()/PostControl()/Stop(); all of it is drained on the loop
/// thread between calendar steps.
///
/// Pacing: the loop spins (yielding, so single-core hosts still make
/// progress) when the next calendar event is within spin_threshold ticks,
/// and parks on a condition variable otherwise. Channel producers wake it
/// through a Dekker-style idle flag, so no published message waits on the
/// sleep granularity.
class RealtimeSubstrate {
 public:
  static constexpr std::size_t kDefaultChannelCapacity = 1024;
  /// Next-event distances at or under this (µs) spin instead of sleeping.
  static constexpr sim::Ticks kDefaultSpinThresholdTicks = 50;

  explicit RealtimeSubstrate(sim::Simulator* sim) : sim_(sim) {}
  RealtimeSubstrate(const RealtimeSubstrate&) = delete;
  RealtimeSubstrate& operator=(const RealtimeSubstrate&) = delete;

  /// Routes injected messages into the model (typically a Mailbox::Push on
  /// the destination's inbox). Runs on the loop thread; the sink may move
  /// the message out (ring slots are reused).
  void set_message_sink(std::function<void(net::Message&&)> sink) {
    sink_ = std::move(sink);
  }

  /// Invoked on the loop thread after each calendar step; a transport
  /// flushes its batched outbound buffers here. Returns true when every
  /// buffered byte reached the kernel — false keeps the loop on a short
  /// retry cadence instead of a long sleep.
  void set_flush_hook(std::function<bool()> hook) {
    flush_hook_ = std::move(hook);
  }

  void set_spin_threshold(sim::Ticks ticks) { spin_threshold_ = ticks; }

  /// Registers a new producer lane. Thread-safe; the loop picks it up on
  /// its next drain pass and retires it after Close() once drained.
  std::shared_ptr<InboundChannel> OpenChannel(
      std::size_t capacity = kDefaultChannelCapacity);

  /// Wall-clock ticks since Run() started (0 before).
  sim::Ticks WallTicks() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Thread-safe: enqueues a message for delivery through the sink.
  /// (Slow path — socket readers use InboundChannels instead.)
  void PostMessage(net::Message msg);

  /// Thread-safe: enqueues an arbitrary thunk to run on the loop thread.
  void PostControl(std::function<void()> fn);

  /// Thread-safe: makes Run() return after the current calendar step.
  void Stop();

  /// Runs the event loop until `horizon` wall ticks elapse, Stop() is
  /// called, or the model requests a stop (sim::Simulator::RequestStop, as
  /// fired by the commit-target hook). Returns the number of calendar
  /// events processed. The simulated clock tracks the wall clock: between
  /// calendar entries the loop spins or sleeps (interruptibly) until the
  /// earlier of the next fire time and the next injection.
  std::uint64_t Run(sim::Ticks horizon);

  /// True once Stop() was called or the model requested a stop.
  bool stopped() const { return stop_seen_.load(std::memory_order_acquire); }

  /// True once Stop() was called (readers poll this to bail out of a
  /// full-ring wait while the loop is no longer draining).
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  sim::Simulator& sim() { return *sim_; }

 private:
  friend class InboundChannel;

  /// Drains every ready slot from every registered channel into the sink.
  /// Returns true if anything was delivered. Loop thread only.
  bool DrainChannels();
  /// Drains the mutex-guarded PostMessage/PostControl queues.
  void DrainQueues();
  /// Re-snapshots `active_` from `channels_` and drops closed+drained
  /// channels from the registry.
  void RefreshChannels();
  bool AnyChannelReady() const;
  /// Yield-spins until `wake`, work, or stop. Single-core friendly: every
  /// iteration yields so producer threads can run.
  void SpinUntil(sim::Ticks wake);
  /// Parks on the condition variable until `wake`, work, or stop.
  void SleepUntil(sim::Ticks wake);
  /// Wakes a sleeping loop. Called by producers after publishing.
  void Kick();

  sim::Simulator* sim_;
  std::function<void(net::Message&&)> sink_;
  std::function<bool()> flush_hook_;
  std::chrono::steady_clock::time_point epoch_{};
  sim::Ticks spin_threshold_ = kDefaultSpinThresholdTicks;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<net::Message> inject_;
  std::deque<std::function<void()>> control_;
  std::vector<std::shared_ptr<InboundChannel>> channels_;

  /// Loop thread's private snapshot of `channels_`, refreshed when
  /// `channels_version_` moves.
  std::vector<std::shared_ptr<InboundChannel>> active_;
  std::uint64_t seen_version_ = 0;

  std::atomic<std::uint64_t> channels_version_{0};
  std::atomic<std::size_t> queued_{0};  // inject_ + control_ entries
  std::atomic<bool> loop_idle_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_seen_{false};
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_REALTIME_H_
