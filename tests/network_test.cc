// Unit tests for the network manager: packetization, per-packet CPU
// charges at both endpoints, FCFS medium occupancy, ordering, the
// zero-delay (infinitely fast network) mode, and the fault injector on
// both of its inputs: the simulated medium and a real substrate's
// transport, whose inbound side is Network::Receive. A send is an awaiter,
// not a coroutine: the frame-free cases below pin what it does before,
// during and after the sender's CPU charge, and that it creates no Task
// frame.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "client/client.h"
#include "config/params.h"
#include "db/database.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "net/message.h"
#include "net/network.h"
#include "runner/metrics.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace ccsim::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : net_(&sim_, sim::MillisToTicks(2), sim::Pcg32(1, 1)),
        client_cpu_(&sim_, "client.cpu", 1),
        server_cpu_(&sim_, "server.cpu", 1),
        client_inbox_(&sim_), server_inbox_(&sim_) {
    net_.RegisterEndpoint(0, Network::Endpoint{&client_inbox_, &client_cpu_,
                                               sim::Ticks{5000}});
    net_.RegisterEndpoint(kServerNode,
                          Network::Endpoint{&server_inbox_, &server_cpu_,
                                            sim::Ticks{2500}});
  }

  sim::Simulator sim_;
  Network net_;
  sim::Resource client_cpu_;
  sim::Resource server_cpu_;
  sim::Mailbox<MessagePtr> client_inbox_;
  sim::Mailbox<MessagePtr> server_inbox_;
};

TEST_F(NetworkTest, ControlMessageIsOnePacket) {
  Message msg;
  msg.type = MsgType::kReadRequest;
  msg.pages = {1, 2, 3};  // control info only
  EXPECT_EQ(PacketsFor(msg), 1);
}

TEST_F(NetworkTest, DataPagesCostOnePacketEach) {
  Message msg;
  msg.type = MsgType::kReadReply;
  msg.data_pages = {1, 2, 3};
  EXPECT_EQ(PacketsFor(msg), 3);
}

sim::Process SendOne(sim::Simulator& sim, Network& net, Message msg,
                     sim::Ticks& sent_at) {
  (void)sim;
  MessagePtr handle = std::make_unique<Message>(std::move(msg));
  co_await net.Send(std::move(handle));
  sent_at = sim.Now();
}

sim::Process ReceiveOne(sim::Simulator& sim, sim::Mailbox<MessagePtr>& inbox,
                        std::vector<std::pair<std::uint64_t, sim::Ticks>>&
                            arrivals, int count) {
  (void)sim;
  for (int i = 0; i < count; ++i) {
    const MessagePtr msg = co_await inbox.Receive();
    arrivals.push_back({msg->xact, sim.Now()});
  }
}

TEST_F(NetworkTest, SenderPaysCpuBeforeReturning) {
  Message msg;
  msg.type = MsgType::kReadRequest;
  msg.src = 0;
  msg.dst = kServerNode;
  sim::Ticks sent_at = 0;
  sim_.Spawn(SendOne(sim_, net_, std::move(msg), sent_at));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(sent_at, 5000);  // one packet * 5000 ticks of client CPU
}

TEST_F(NetworkTest, DeliveryChargesReceiverCpuAndMedium) {
  Message msg;
  msg.type = MsgType::kReadRequest;
  msg.src = 0;
  msg.dst = kServerNode;
  msg.xact = 42;
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 1));
  sim::Ticks sent_at = 0;
  sim_.Spawn(SendOne(sim_, net_, std::move(msg), sent_at));
  sim_.Run(sim::SecondsToTicks(1));
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].first, 42u);
  // send CPU (5000) + exponential network delay + receive CPU (2500).
  EXPECT_GT(arrivals[0].second, 7500);
  EXPECT_EQ(net_.messages_sent(), 1u);
  EXPECT_EQ(net_.packets_sent(), 1u);
}

TEST_F(NetworkTest, PerPairFifoOrdering) {
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 5));
  std::vector<sim::Ticks> sent_at(5, 0);  // outlives the spawned senders
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Message msg;
    msg.type = MsgType::kNoWaitLock;
    msg.src = 0;
    msg.dst = kServerNode;
    msg.xact = i;
    sim_.Spawn(SendOne(sim_, net_, std::move(msg), sent_at[i - 1]));
  }
  sim_.Run(sim::SecondsToTicks(1));
  ASSERT_EQ(arrivals.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(arrivals[i].first, i + 1);
  }
}

TEST_F(NetworkTest, MultiPacketMessageOccupiesMediumPerPacket) {
  Message msg;
  msg.type = MsgType::kCommitRequest;
  msg.src = 0;
  msg.dst = kServerNode;
  msg.data_pages = {1, 2, 3, 4};
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 1));
  sim::Ticks sent_at = 0;
  sim_.Spawn(SendOne(sim_, net_, std::move(msg), sent_at));
  sim_.Run(sim::SecondsToTicks(10));
  EXPECT_EQ(sent_at, 4 * 5000);  // 4 packets of send CPU
  EXPECT_EQ(net_.packets_sent(), 4u);
  ASSERT_EQ(arrivals.size(), 1u);
  // 4 exponential(2ms) transfers + 4 * 2500 receive CPU after send.
  EXPECT_GT(arrivals[0].second, sent_at + 4 * 2500);
}

TEST_F(NetworkTest, ZeroDelayNetworkSkipsMedium) {
  sim::Simulator sim;
  Network net(&sim, /*mean_packet_delay=*/0, sim::Pcg32(1, 1));
  sim::Resource cpu_a(&sim, "a", 1);
  sim::Resource cpu_b(&sim, "b", 1);
  sim::Mailbox<MessagePtr> inbox_a(&sim);
  sim::Mailbox<MessagePtr> inbox_b(&sim);
  net.RegisterEndpoint(0, Network::Endpoint{&inbox_a, &cpu_a, 0});
  net.RegisterEndpoint(kServerNode, Network::Endpoint{&inbox_b, &cpu_b, 0});
  Message msg;
  msg.type = MsgType::kReadRequest;
  msg.src = 0;
  msg.dst = kServerNode;
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim.Spawn(ReceiveOne(sim, inbox_b, arrivals, 1));
  sim::Ticks sent_at = 0;
  sim.Spawn(SendOne(sim, net, std::move(msg), sent_at));
  sim.Run(100);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].second, 0);  // free messaging: same-instant delivery
  EXPECT_EQ(net.medium().completions(), 0u);
}

// --- Fault-injection hook -------------------------------------------------

Message ClientToServer(std::uint64_t xact) {
  Message msg;
  msg.type = MsgType::kReadRequest;
  msg.src = 0;
  msg.dst = kServerNode;
  msg.xact = xact;
  return msg;
}

TEST_F(NetworkTest, ZeroPlanInjectorIsInert) {
  // The regression contract: an injector built from FaultPlan{} must behave
  // exactly like no injector at all.
  fault::FaultInjector injector(fault::FaultPlan{}, sim::Pcg32(1, 2));
  net_.set_fault_injector(&injector);
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 3));
  std::vector<sim::Ticks> sent_at(3, 0);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    sim_.Spawn(SendOne(sim_, net_, ClientToServer(i), sent_at[i - 1]));
  }
  sim_.Run(sim::SecondsToTicks(1));
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(injector.messages_dropped(), 0u);
  EXPECT_EQ(injector.messages_duplicated(), 0u);
  EXPECT_EQ(injector.delay_spikes(), 0u);
  EXPECT_EQ(injector.down_drops(), 0u);

  // Same traffic through an identical network with no injector arrives at
  // the same instants: the null plan consumes no variates.
  sim::Simulator sim2;
  Network net2(&sim2, sim::MillisToTicks(2), sim::Pcg32(1, 1));
  sim::Resource cpu_a(&sim2, "client.cpu", 1);
  sim::Resource cpu_b(&sim2, "server.cpu", 1);
  sim::Mailbox<MessagePtr> inbox_a(&sim2);
  sim::Mailbox<MessagePtr> inbox_b(&sim2);
  net2.RegisterEndpoint(0, Network::Endpoint{&inbox_a, &cpu_a, 5000});
  net2.RegisterEndpoint(kServerNode,
                        Network::Endpoint{&inbox_b, &cpu_b, 2500});
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals2;
  sim2.Spawn(ReceiveOne(sim2, inbox_b, arrivals2, 3));
  std::vector<sim::Ticks> sent_at2(3, 0);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    sim2.Spawn(SendOne(sim2, net2, ClientToServer(i), sent_at2[i - 1]));
  }
  sim2.Run(sim::SecondsToTicks(1));
  ASSERT_EQ(arrivals2.size(), 3u);
  EXPECT_EQ(arrivals, arrivals2);
  EXPECT_EQ(sent_at, sent_at2);
}

TEST_F(NetworkTest, CertainDropDeliversNothing) {
  fault::FaultPlan plan;
  plan.link.drop = 1.0;
  fault::FaultInjector injector(std::move(plan), sim::Pcg32(1, 2));
  net_.set_fault_injector(&injector);
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 1));
  sim::Ticks sent_at = 0;
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(1), sent_at));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_TRUE(arrivals.empty());
  // The sender still paid its CPU cost: drops happen in transit, not at the
  // API boundary.
  EXPECT_EQ(sent_at, 5000);
  EXPECT_EQ(injector.messages_dropped(), 1u);
  EXPECT_EQ(net_.messages_sent(), 1u);
}

TEST_F(NetworkTest, CertainDuplicateDeliversTwice) {
  fault::FaultPlan plan;
  plan.link.duplicate = 1.0;
  fault::FaultInjector injector(std::move(plan), sim::Pcg32(1, 2));
  net_.set_fault_injector(&injector);
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 2));
  sim::Ticks sent_at = 0;
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(7), sent_at));
  sim_.Run(sim::SecondsToTicks(1));
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].first, 7u);
  EXPECT_EQ(arrivals[1].first, 7u);
  EXPECT_EQ(injector.messages_duplicated(), 1u);
}

TEST_F(NetworkTest, DownDestinationDropsInFlight) {
  fault::FaultInjector injector(fault::FaultPlan{}, sim::Pcg32(1, 2));
  net_.set_fault_injector(&injector);
  injector.SetDown(kServerNode, true);
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 1));
  sim::Ticks sent_at = 0;
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(1), sent_at));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(injector.down_drops(), 1u);

  // After the node comes back up, traffic flows again.
  injector.SetDown(kServerNode, false);
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(2), sent_at));
  sim_.Run(sim::SecondsToTicks(2));
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].first, 2u);
}

TEST_F(NetworkTest, PartitionCutsOnlyTheSeveredDirection) {
  fault::FaultInjector injector(fault::FaultPlan{}, sim::Pcg32(1, 2));
  net_.set_fault_injector(&injector);
  // Cut only client 0's outbound half: requests die, replies still arrive.
  injector.SetPartitioned(0, fault::PartitionWindow::Direction::kToServer,
                          true);
  std::vector<std::pair<std::uint64_t, sim::Ticks>> to_server;
  std::vector<std::pair<std::uint64_t, sim::Ticks>> to_client;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, to_server, 1));
  sim_.Spawn(ReceiveOne(sim_, client_inbox_, to_client, 1));
  sim::Ticks sent_at = 0;
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(1), sent_at));
  Message reply;
  reply.type = MsgType::kReadReply;
  reply.src = kServerNode;
  reply.dst = 0;
  reply.xact = 2;
  sim_.Spawn(SendOne(sim_, net_, std::move(reply), sent_at));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_TRUE(to_server.empty());
  ASSERT_EQ(to_client.size(), 1u);
  EXPECT_EQ(to_client[0].first, 2u);
  EXPECT_EQ(injector.partition_drops(), 1u);

  // Healing restores the link.
  injector.SetPartitioned(0, fault::PartitionWindow::Direction::kToServer,
                          false);
  EXPECT_FALSE(injector.AnyPartitioned());
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(3), sent_at));
  sim_.Run(sim::SecondsToTicks(2));
  ASSERT_EQ(to_server.size(), 1u);
  EXPECT_EQ(to_server[0].first, 3u);
}

TEST_F(NetworkTest, SymmetricPartitionCutsBothDirections) {
  fault::FaultInjector injector(fault::FaultPlan{}, sim::Pcg32(1, 2));
  net_.set_fault_injector(&injector);
  injector.SetPartitioned(0, fault::PartitionWindow::Direction::kBoth, true);
  std::vector<std::pair<std::uint64_t, sim::Ticks>> to_server;
  std::vector<std::pair<std::uint64_t, sim::Ticks>> to_client;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, to_server, 1));
  sim_.Spawn(ReceiveOne(sim_, client_inbox_, to_client, 1));
  sim::Ticks sent_at = 0;
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(1), sent_at));
  Message reply;
  reply.type = MsgType::kReadReply;
  reply.src = kServerNode;
  reply.dst = 0;
  reply.xact = 2;
  sim_.Spawn(SendOne(sim_, net_, std::move(reply), sent_at));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_TRUE(to_server.empty());
  EXPECT_TRUE(to_client.empty());
  EXPECT_EQ(injector.partition_drops(), 2u);
}

TEST_F(NetworkTest, ResetStatsClearsInjectorCounters) {
  fault::FaultPlan plan;
  plan.link.drop = 1.0;
  fault::FaultInjector injector(std::move(plan), sim::Pcg32(1, 2));
  net_.set_fault_injector(&injector);
  sim::Ticks sent_at = 0;
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(1), sent_at));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(injector.messages_dropped(), 1u);
  net_.ResetStats(sim_.Now());
  EXPECT_EQ(injector.messages_dropped(), 0u);
  EXPECT_EQ(net_.messages_sent(), 0u);
}

// --- The same faults with a transport installed ---------------------------

/// Stands in for a real substrate's wire: records what the network hands
/// it, in order.
class RecordingTransport : public Transport {
 public:
  void Deliver(const Message& msg) override { delivered.push_back(msg.seq); }

  std::vector<std::uint64_t> delivered;
};

Message Sequenced(std::uint64_t seq, int src = 0, int dst = kServerNode) {
  Message msg;
  msg.type = MsgType::kNoWaitLock;
  msg.src = src;
  msg.dst = dst;
  msg.seq = seq;
  return msg;
}

/// The fixture's network with a transport and an injector built from
/// `plan` installed.
class WireNetworkTest : public NetworkTest {
 protected:
  void Install(fault::FaultPlan plan) {
    injector_ = std::make_unique<fault::FaultInjector>(std::move(plan),
                                                       sim::Pcg32(7, 2));
    net_.set_fault_injector(injector_.get());
    net_.set_transport(&wire_);
  }

  /// Sends `msg` and runs the calendar through the current instant.
  void Send(Message msg) {
    sim::Ticks sent_at = 0;
    sim_.Spawn(SendOne(sim_, net_, std::move(msg), sent_at));
    sim_.Run(sim_.Now());
  }

  /// Hands `msg` to the inbound side, as a transport's decoded frame.
  void Receive(Message msg) {
    net_.Receive(std::make_unique<Message>(std::move(msg)));
  }

  RecordingTransport wire_;
  std::unique_ptr<fault::FaultInjector> injector_;
};

TEST_F(WireNetworkTest, DuplicatesArriveBackToBack) {
  fault::FaultPlan plan;
  plan.link.duplicate = 1.0;
  Install(std::move(plan));
  for (std::uint64_t i = 0; i < 5; ++i) {
    Send(Sequenced(i));
  }
  EXPECT_EQ(wire_.delivered,
            (std::vector<std::uint64_t>{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}));
  EXPECT_EQ(injector_->messages_duplicated(), 5u);
  EXPECT_EQ(net_.messages_sent(), 5u);
}

TEST_F(WireNetworkTest, DropsAreCountedAndNothingLeaks) {
  fault::FaultPlan plan;
  plan.link.drop = 1.0;
  Install(std::move(plan));
  for (std::uint64_t i = 0; i < 4; ++i) {
    Send(Sequenced(i));
  }
  EXPECT_TRUE(wire_.delivered.empty());
  EXPECT_EQ(injector_->messages_dropped(), 4u);
}

// With both faults active the surviving stream is still a per-sender FIFO:
// seqs arrive in non-decreasing order, each at most twice, duplicates
// adjacent.
TEST_F(WireNetworkTest, DuplicatedThenDroppedPreservesFifo) {
  fault::FaultPlan plan;
  plan.link.drop = 0.3;
  plan.link.duplicate = 0.3;
  Install(std::move(plan));
  constexpr std::uint64_t kSends = 400;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    Send(Sequenced(i));
  }
  std::uint64_t last = 0;
  int run = 0;
  for (const std::uint64_t seq : wire_.delivered) {
    if (!(seq == last && run > 0)) {
      EXPECT_GE(seq, last) << "survivor stream reordered";
      last = seq;
      run = 1;
    } else {
      ++run;
      EXPECT_LE(run, 2) << "seq " << seq << " delivered more than twice";
    }
  }
  EXPECT_GT(injector_->messages_dropped(), 0u);
  EXPECT_GT(injector_->messages_duplicated(), 0u);
  EXPECT_EQ(wire_.delivered.size() + injector_->messages_dropped() -
                injector_->messages_duplicated(),
            kSends);
}

TEST_F(WireNetworkTest, PartitionCutsDirectionally) {
  Install(fault::FaultPlan{});
  injector_->SetPartitioned(0, fault::PartitionWindow::Direction::kToServer,
                            true);
  // Client 0 -> server is cut, outbound and inbound...
  Send(Sequenced(1, /*src=*/0, kServerNode));
  Receive(Sequenced(2, /*src=*/0, kServerNode));
  EXPECT_TRUE(wire_.delivered.empty());
  EXPECT_TRUE(server_inbox_.empty());
  EXPECT_EQ(injector_->partition_drops(), 2u);
  // ...but server -> client 0 still flows both ways.
  Send(Sequenced(3, kServerNode, /*dst=*/0));
  Receive(Sequenced(4, kServerNode, /*dst=*/0));
  EXPECT_EQ(wire_.delivered, std::vector<std::uint64_t>{3});
  EXPECT_EQ(client_inbox_.size(), 1u);
  // Another client's link is untouched.
  Send(Sequenced(5, /*src=*/1, kServerNode));
  EXPECT_EQ(wire_.delivered, (std::vector<std::uint64_t>{3, 5}));

  injector_->SetPartitioned(0, fault::PartitionWindow::Direction::kToServer,
                            false);
  Send(Sequenced(6, /*src=*/0, kServerNode));
  EXPECT_EQ(wire_.delivered, (std::vector<std::uint64_t>{3, 5, 6}));
}

TEST_F(WireNetworkTest, DownEndpointSendsAndReceivesNothing) {
  Install(fault::FaultPlan{});
  injector_->SetDown(kServerNode, true);
  Send(Sequenced(1, kServerNode, /*dst=*/0));
  Receive(Sequenced(2, /*src=*/0, kServerNode));
  EXPECT_TRUE(wire_.delivered.empty());
  EXPECT_TRUE(server_inbox_.empty());
  EXPECT_EQ(injector_->down_drops(), 2u);

  injector_->SetDown(kServerNode, false);
  Send(Sequenced(3, kServerNode, /*dst=*/0));
  Receive(Sequenced(4, /*src=*/0, kServerNode));
  EXPECT_EQ(wire_.delivered, std::vector<std::uint64_t>{3});
  EXPECT_EQ(server_inbox_.size(), 1u);
}

// A spike is an entry on the network's calendar: the transport gets the
// message when the entry fires, not before, and equal spikes stay FIFO.
TEST_F(WireNetworkTest, DelaySpikeIsHeldUntilDueThenReleasedFifo) {
  fault::FaultPlan plan;
  plan.link.delay_spike = 1.0;
  plan.link.spike_delay = sim::MillisToTicks(100.0);
  Install(std::move(plan));
  const sim::Ticks due = sim_.Now() + sim::MillisToTicks(100.0);
  Send(Sequenced(1));
  Send(Sequenced(2));
  sim_.Run(due - 1);
  EXPECT_TRUE(wire_.delivered.empty());
  sim_.Run(due);
  EXPECT_EQ(wire_.delivered, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(injector_->delay_spikes(), 2u);
}

// A spiked message must not leak through a window that opened while it was
// in flight: the entry applies the in-flight rule when it fires.
TEST_F(WireNetworkTest, SpikedMessageDroppedByWindowOpenedMidFlight) {
  fault::FaultPlan plan;
  plan.link.delay_spike = 1.0;
  plan.link.spike_delay = sim::MillisToTicks(2.0);
  Install(std::move(plan));
  Send(Sequenced(1, /*src=*/0, kServerNode));
  injector_->SetPartitioned(0, fault::PartitionWindow::Direction::kBoth,
                            true);
  sim_.Run(sim_.Now() + sim::MillisToTicks(5.0));
  EXPECT_TRUE(wire_.delivered.empty());
  EXPECT_EQ(injector_->partition_drops(), 1u);
}

// --- The frame-free send ---------------------------------------------------

// A fault-free send on the simulated medium suspends its sender once, for
// one CPU job covering all its packets, and then hands the message to the
// medium.
TEST_F(NetworkTest, FaultFreeSendChargesSenderCpuOnceThenTransfers) {
  Message msg = ClientToServer(5);
  msg.type = MsgType::kCommitRequest;
  msg.data_pages = {1, 2, 3};
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 1));
  sim::Ticks sent_at = 0;
  const std::uint64_t tasks_before = sim::frame_counts.tasks;
  sim_.Spawn(SendOne(sim_, net_, std::move(msg), sent_at));
  sim_.Run(3 * 5000);
  EXPECT_EQ(sent_at, 3 * 5000);
  EXPECT_EQ(client_cpu_.completions(), 1u);
  EXPECT_EQ(net_.medium().completions(), 0u);  // the transfer starts now
  sim_.Run(sim::SecondsToTicks(1));
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].first, 5u);
  EXPECT_EQ(net_.medium().completions(), 3u);
  EXPECT_EQ(client_cpu_.completions(), 1u);
  EXPECT_EQ(net_.messages_sent(), 1u);
  EXPECT_EQ(net_.packets_sent(), 3u);
  EXPECT_EQ(sim::frame_counts.tasks, tasks_before);
}

sim::Process SendTwo(Network& net, bool& done) {
  co_await net.Send(std::make_unique<Message>(Sequenced(1)));
  co_await net.Send(std::make_unique<Message>(Sequenced(2)));
  done = true;
}

// A fault-free transport takes the message inside the await: the sender
// never suspends, so both sends finish in the process's first step.
TEST_F(NetworkTest, TransportPathDeliversWithoutSuspending) {
  RecordingTransport wire;
  net_.set_transport(&wire);
  bool done = false;
  const std::uint64_t events_before = sim_.events_processed();
  const std::uint64_t tasks_before = sim::frame_counts.tasks;
  sim_.Spawn(SendTwo(net_, done));
  sim_.Run(sim_.Now());
  EXPECT_TRUE(done);
  EXPECT_EQ(sim_.events_processed() - events_before, 1u);  // the spawn
  EXPECT_EQ(wire.delivered, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(net_.messages_sent(), 2u);
  EXPECT_EQ(client_cpu_.completions(), 0u);
  EXPECT_EQ(sim::frame_counts.tasks, tasks_before);
}

// A down sender's send is counted as sent and as a down drop, charges no
// CPU and returns at once.
TEST_F(NetworkTest, DownSenderSendIsDroppedAndCounted) {
  fault::FaultInjector injector(fault::FaultPlan{}, sim::Pcg32(1, 2));
  net_.set_fault_injector(&injector);
  injector.SetDown(0, true);
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 1));
  sim::Ticks sent_at = -1;
  const std::uint64_t tasks_before = sim::frame_counts.tasks;
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(1), sent_at));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(sent_at, 0);
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(injector.down_drops(), 1u);
  EXPECT_EQ(net_.messages_sent(), 1u);
  EXPECT_EQ(client_cpu_.completions(), 0u);
  EXPECT_EQ(sim::frame_counts.tasks, tasks_before);
}

// The link is checked after the sender's CPU charge: a cut that opens
// while the sender pays is a partition drop, and the sender still paid.
TEST_F(NetworkTest, LinkCutDuringCpuChargeIsPartitionDrop) {
  fault::FaultInjector injector(fault::FaultPlan{}, sim::Pcg32(1, 2));
  net_.set_fault_injector(&injector);
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 1));
  sim::Ticks sent_at = 0;
  const std::uint64_t tasks_before = sim::frame_counts.tasks;
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(1), sent_at));
  sim_.Run(2500);  // mid-charge
  EXPECT_EQ(client_cpu_.busy_servers(), 1);
  injector.SetPartitioned(0, fault::PartitionWindow::Direction::kToServer,
                          true);
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(sent_at, 5000);
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(injector.partition_drops(), 1u);
  EXPECT_EQ(net_.medium().completions(), 0u);
  EXPECT_EQ(sim::frame_counts.tasks, tasks_before);
}

// A duplicate outcome sends two copies for one sender charge; each copy
// crosses the medium and is charged at the receiver.
TEST_F(NetworkTest, DuplicateOutcomeDeliversTwoCopies) {
  fault::FaultPlan plan;
  plan.link.duplicate = 1.0;
  fault::FaultInjector injector(std::move(plan), sim::Pcg32(1, 2));
  net_.set_fault_injector(&injector);
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 2));
  sim::Ticks sent_at = 0;
  const std::uint64_t tasks_before = sim::frame_counts.tasks;
  sim_.Spawn(SendOne(sim_, net_, ClientToServer(9), sent_at));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(sent_at, 5000);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].first, 9u);
  EXPECT_EQ(arrivals[1].first, 9u);
  EXPECT_EQ(client_cpu_.completions(), 1u);
  EXPECT_EQ(server_cpu_.completions(), 2u);
  EXPECT_EQ(net_.medium().completions(), 2u);
  EXPECT_EQ(injector.messages_duplicated(), 1u);
  EXPECT_EQ(net_.messages_sent(), 1u);
  EXPECT_EQ(sim::frame_counts.tasks, tasks_before);
}

sim::Process SendAsyncOne(client::Client& client, MessagePtr msg,
                          bool& done) {
  co_await client.SendAsync(std::move(msg));
  done = true;
}

// A crashed workstation's SendAsync is a no-op: it stamps nothing, sends
// nothing, charges nothing and counts nothing, and returns at once.
TEST_F(NetworkTest, CrashedClientSendAsyncSendsAndCountsNothing) {
  const config::ExperimentConfig config = config::BaseConfig();
  const db::DatabaseLayout layout(config.database,
                                  config.system.num_data_disks);
  runner::Metrics metrics(&sim_);
  client::Client client(&sim_, /*id=*/1, config, &layout, &net_, &metrics,
                        sim::Pcg32(1, 1), sim::Pcg32(2, 2),
                        sim::Pcg32(3, 3));
  client.Crash();
  std::vector<std::pair<std::uint64_t, sim::Ticks>> arrivals;
  sim_.Spawn(ReceiveOne(sim_, server_inbox_, arrivals, 1));
  bool done = false;
  const std::uint64_t tasks_before = sim::frame_counts.tasks;
  auto msg = std::make_unique<Message>();
  msg->type = MsgType::kDirtyEvict;
  sim_.Spawn(SendAsyncOne(client, std::move(msg), done));
  sim_.Run(sim_.Now());
  EXPECT_TRUE(done);
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(net_.messages_sent(), 0u);
  EXPECT_EQ(net_.packets_sent(), 0u);
  EXPECT_EQ(client.cpu().completions(), 0u);
  EXPECT_EQ(sim::frame_counts.tasks, tasks_before);
}

// A frame for a node with no endpoint here came from outside the program:
// Receive drops it instead of asserting.
TEST_F(NetworkTest, ReceiveDropsMessagesForUnregisteredNodes) {
  net_.Receive(std::make_unique<Message>(Sequenced(1, kServerNode, 7)));
  net_.Receive(std::make_unique<Message>(Sequenced(2, 0, -5)));
  EXPECT_TRUE(client_inbox_.empty());
  EXPECT_TRUE(server_inbox_.empty());
  net_.Receive(std::make_unique<Message>(Sequenced(3, 0, kServerNode)));
  EXPECT_EQ(server_inbox_.size(), 1u);
}

TEST(NetworkDeathTest, DoubleEndpointRegistrationAsserts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  Network net(&sim, sim::MillisToTicks(2), sim::Pcg32(1, 1));
  sim::Resource cpu(&sim, "cpu", 1);
  sim::Mailbox<MessagePtr> inbox(&sim);
  net.RegisterEndpoint(0, Network::Endpoint{&inbox, &cpu, 0});
  EXPECT_DEATH(net.RegisterEndpoint(0, Network::Endpoint{&inbox, &cpu, 0}),
               "registered twice");
}

TEST(NetworkDeathTest, UnregisteredSenderAndReceiverAssert) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  Network net(&sim, /*mean_packet_delay=*/0, sim::Pcg32(1, 1));
  sim::Resource cpu(&sim, "cpu", 1);
  sim::Mailbox<MessagePtr> inbox(&sim);
  net.RegisterEndpoint(2, Network::Endpoint{&inbox, &cpu, 0});
  sim::Ticks sent_at = 0;
  const auto send = [&](int src, int dst) {
    Message msg;
    msg.src = src;
    msg.dst = dst;
    sim.Spawn(SendOne(sim, net, std::move(msg), sent_at));
    sim.Run(100);
  };
  // Node 1 sits below a registered node; the server (-1) was never added.
  EXPECT_DEATH(send(1, 2), "unregistered sender 1");
  EXPECT_DEATH(send(2, kServerNode), "unregistered receiver -1");
  EXPECT_DEATH(send(2, 7), "unregistered receiver 7");
}

}  // namespace
}  // namespace ccsim::net
