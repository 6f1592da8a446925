// Unit tests for the network manager: packetization, per-packet CPU
// charges at both endpoints, FCFS medium occupancy, ordering, and the
// zero-delay (infinitely fast network) mode.

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/simulator.h"

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
