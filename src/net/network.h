#ifndef CCSIM_NET_NETWORK_H_
#define CCSIM_NET_NETWORK_H_

#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault_injector.h"
#include "net/message.h"
#include "sim/event.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace ccsim::net {

/// Pluggable message carrier for the real substrate. When installed on a
/// Network, Send() hands every message to the transport instead of the
/// simulated medium: framing and latency become the carrier's problem (TCP
/// over loopback/LAN in practice), while planned faults stay the
/// Network's. Messages the carrier brings in reach the node through
/// Network::Receive.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Ships `msg` toward msg.dst. Called on the owning node's event-loop
  /// thread only; implementations may buffer and batch — delivery is
  /// guaranteed only after the next Flush().
  virtual void Deliver(const Message& msg) = 0;
  /// Pushes any batched outbound messages to the wire. Called on the
  /// owning node's event-loop thread at calendar-step boundaries (the
  /// substrate's flush hook). Returns true once nothing remains buffered;
  /// false asks the caller to flush again soon (socket backpressure).
  virtual bool Flush() { return true; }
};

/// The network manager (paper §3.3.1). Messages are split into packets;
/// each packet
///  - charges MsgCost instructions on the sending CPU (the sender's
///    coroutine waits for this: it is the sender's own work),
///  - occupies the shared FCFS network medium for an exponential NetDelay,
///  - charges MsgCost instructions on the receiving CPU,
/// after which the message lands in the destination mailbox. Per-pair FIFO
/// ordering holds because the medium is a single FCFS server and CPU queues
/// are FCFS.
class Network {
 public:
  struct Endpoint {
    sim::Mailbox<MessagePtr>* inbox = nullptr;
    sim::Resource* cpu = nullptr;
    /// MsgCost in ticks at this endpoint's CPU speed, per packet.
    sim::Ticks msg_cost = 0;
  };

  Network(sim::Simulator* simulator, sim::Ticks mean_packet_delay,
          sim::Pcg32 rng)
      : simulator_(simulator), mean_packet_delay_(mean_packet_delay),
        rng_(rng), medium_(simulator, "network", /*num_servers=*/1) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void RegisterEndpoint(int node, Endpoint endpoint) {
    CCSIM_CHECK(node >= kServerNode && endpoint.inbox != nullptr);
    const auto slot = static_cast<std::size_t>(node + 1);
    if (slot >= endpoints_.size()) {
      endpoints_.resize(slot + 1);
    }
    CCSIM_CHECK_MSG(endpoints_[slot].inbox == nullptr,
                    "endpoint %d registered twice", node);
    endpoints_[slot] = endpoint;
  }

  /// Attaches a real transport (nullptr = simulated medium, the default).
  /// With a transport installed, Send() bypasses the medium and the CPU
  /// charges (the wire is real, so its costs are real too) but applies the
  /// fault injector as the medium path does; a delay spike holds the
  /// message on this network's calendar before the transport gets it.
  void set_transport(Transport* transport) { transport_ = transport; }
  Transport* transport() { return transport_; }

  /// Attaches a fault injector (nullptr = perfect network, the default).
  /// The hook costs nothing when unset: Send, TransferAndDeliver and
  /// Receive touch the injector only through this pointer.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// The awaitable a Send returns; awaiting it sends the message. The
  /// checks that cost no CPU (the fault-free transport's hand-off, a down
  /// sender's drop) run in await_ready; the sender's CPU charge is its one
  /// suspension; the link-cut check, the send-outcome draw and the
  /// transfer run in await_resume. A default-constructed SendOp sends
  /// nothing.
  class [[nodiscard]] SendOp {
   public:
    SendOp() = default;
    bool await_ready() {
      return msg_ == nullptr || network_->BeginSend(*this);
    }
    void await_suspend(std::coroutine_handle<> handle) {
      cpu_charge_.await_suspend(handle);
    }
    void await_resume() {
      if (msg_ != nullptr) {
        network_->EndSend(std::move(msg_), packets_);
      }
    }

   private:
    friend class Network;
    SendOp(Network* network, MessagePtr msg)
        : network_(network), msg_(std::move(msg)) {}

    Network* network_ = nullptr;
    MessagePtr msg_;
    int packets_ = 0;
    sim::Resource::UseOp cpu_charge_{nullptr, 0};
  };

  /// Sends a message: the caller pays the send-side CPU cost, then transfer
  /// and delivery proceed asynchronously. The handle travels on into the
  /// destination inbox; only a duplicating fault copies the message.
  /// Nothing happens until the result is awaited.
  SendOp Send(MessagePtr msg) { return SendOp(this, std::move(msg)); }

  /// Hands an arrived message to its destination's inbox, unless the
  /// in-flight rule kills it (Arrives). The medium path ends here; on the
  /// real substrate the transport's inbound frames come here. A message
  /// for a node with no endpoint on this network came from outside the
  /// program and is dropped.
  void Receive(MessagePtr msg);

  sim::Resource& medium() { return medium_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  void ResetStats(sim::Ticks now) {
    messages_sent_ = 0;
    packets_sent_ = 0;
    medium_.ResetStats(now);
    if (injector_ != nullptr) {
      injector_->ResetStats();
    }
  }

 private:
  /// A send's work before the sender's CPU charge. False when the charge
  /// is due (it is set in `op`); true when the send needs no wait, having
  /// finished unless `op` still holds the message for EndSend.
  bool BeginSend(SendOp& op);
  /// A send's work after the sender's CPU charge: the link-cut check,
  /// the send-outcome draw and the transfer of each surviving copy.
  void EndSend(MessagePtr msg, int packets);
  /// Carries one copy that survived the send-side draws: over the
  /// medium, or to the transport after its spike draw.
  void Transfer(MessagePtr msg, int packets);
  sim::Process TransferAndDeliver(MessagePtr msg, int packets);
  /// The in-flight rule: a message whose receiver is down, or whose link
  /// is cut, dies in transit (counted). True when it may be delivered.
  bool Arrives(const Message& msg);

  /// The endpoint registered for `node`, or nullptr. Callers copy it
  /// before awaiting: a registration may grow the table meanwhile.
  const Endpoint* FindEndpoint(int node) const {
    const auto slot = static_cast<std::size_t>(node + 1);
    return slot < endpoints_.size() && endpoints_[slot].inbox != nullptr
               ? &endpoints_[slot]
               : nullptr;
  }

  sim::Simulator* simulator_;
  sim::Ticks mean_packet_delay_;
  sim::Pcg32 rng_;
  sim::Resource medium_;
  Transport* transport_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  /// Indexed by node + 1 (the server is node -1); unregistered slots have
  /// a null inbox.
  std::vector<Endpoint> endpoints_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
};

}  // namespace ccsim::net

#endif  // CCSIM_NET_NETWORK_H_
