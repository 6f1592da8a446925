#ifndef CCSIM_SUBSTRATE_FAULTY_TRANSPORT_H_
#define CCSIM_SUBSTRATE_FAULTY_TRANSPORT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/random.h"
#include "sim/time.h"
#include "substrate/realtime.h"

namespace ccsim::substrate {

/// Dedicated PCG stream for wire-level fault draws (distinct from the DES
/// network stream so a given seed produces independent-but-deterministic
/// fault sequences on either substrate).
inline constexpr std::uint64_t kWireFaultStream = 0xFA17;

/// Fault-injecting decorator at the net::Transport seam: applies the
/// FaultPlan's per-link drop/duplicate/delay-spike draws to whole messages
/// (= whole frames once encoded) before they reach the real wire transport,
/// and filters inbound messages against crash/partition windows.
///
/// Contract with the batched wire path (DESIGN.md §5e):
///  - Faults act on whole frames at flush/drain boundaries, never
///    mid-frame: a dropped message simply never reaches the downstream
///    FrameBuffer; a duplicated message is queued twice, back to back, so
///    per-connection FIFO order of non-faulted traffic is untouched.
///  - Delay spikes hold the message in a local min-heap and release it at
///    a later Flush() whose wall clock has passed the due time. Release
///    order among delayed messages is (due, queue order), so two messages
///    spiked by the same amount stay FIFO.
///  - Crash (`SetDown`) and partition (`SetPartitioned`) windows are
///    driven externally on the owning node's loop thread by schedule
///    events that translate plan ticks to wall-clock deadlines.
///
/// Threading: every method is loop-thread-only, same as the Transport it
/// wraps. The adapter owns its injector; wiring code reaches it through
/// injector() to drive windows and to harvest fault counters.
class WireFaultAdapter : public net::Transport {
 public:
  WireFaultAdapter(fault::FaultPlan plan, std::uint64_t seed,
                   RealtimeSubstrate* substrate, net::Transport* next)
      : injector_(std::move(plan), sim::Pcg32(seed, kWireFaultStream)),
        substrate_(substrate), next_(next) {}

  /// Outbound: fault-draw the message, then hand survivors downstream.
  void Deliver(const net::Message& msg) override;

  /// Releases delay-spiked messages whose due time has passed, then
  /// flushes the downstream transport.
  bool Flush() override;

  /// Inbound filter: false = discard (endpoint down or link cut). Called
  /// by the node's substrate sink before the message reaches the model.
  bool AllowInbound(const net::Message& msg);

  fault::FaultInjector& injector() { return injector_; }

 private:
  struct Delayed {
    sim::Ticks due = 0;
    std::uint64_t order = 0;
    net::Message msg;
  };
  struct DelayedLater {
    bool operator()(const Delayed& a, const Delayed& b) const {
      // std::push_heap builds a max-heap; invert so front() is earliest.
      return a.due > b.due || (a.due == b.due && a.order > b.order);
    }
  };

  /// Queues one surviving copy downstream, or into the delay heap when a
  /// spike is drawn.
  void Forward(const net::Message& msg);

  fault::FaultInjector injector_;
  RealtimeSubstrate* substrate_;
  net::Transport* next_;
  std::vector<Delayed> delayed_;
  std::uint64_t delay_order_ = 0;
};

}  // namespace ccsim::substrate

#endif  // CCSIM_SUBSTRATE_FAULTY_TRANSPORT_H_
