// Substrate parity: the same workload configuration, run once on the
// deterministic DES substrate and once on the real substrate (threads +
// TCP loopback), must satisfy the same structural invariants:
//
//   - attempt conservation: every started attempt ends in exactly one
//     commit or abort, with at most num_clients attempts in flight when
//     the run stops, and zero transactions lost;
//   - oracle-clean: with the consistency checker on, both runs survive
//     serializability checking and the commit-time structural audits
//     (a violation aborts the process, so surviving IS the assertion);
//   - liveness: both substrates actually commit work.
//
// The real runs are wall-clock paced, so this file is the slow kind of
// test (~2 s per protocol); it is also the one that must stay clean under
// ASan and TSan — it exercises every cross-thread path in the substrate.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "config/params.h"
#include "net/message.h"
#include "runner/experiment.h"
#include "runner/real_experiment.h"
#include "sim/simulator.h"
#include "substrate/node.h"
#include "substrate/realtime.h"
#include "substrate/tcp.h"
#include "util/status.h"

namespace ccsim {
namespace {

using config::Algorithm;
using config::CachingMode;
using config::ExperimentConfig;
using runner::RunResult;

ExperimentConfig ParityConfig(Algorithm algorithm, CachingMode caching) {
  ExperimentConfig cfg = config::BaseConfig();
  cfg.algorithm.algorithm = algorithm;
  cfg.algorithm.caching = caching;
  cfg.system.num_clients = 6;
  cfg.control.seed = 11;
  cfg.checker.enabled = true;
  // Keep the clients busy: parity is about message interleavings, not
  // think-time realism, and short real runs need enough commits to bite.
  cfg.transaction.update_delay_s = 0.0;
  cfg.transaction.internal_delay_s = 0.0;
  cfg.transaction.external_delay_s = 0.05;
  return cfg;
}

void CheckInvariants(const RunResult& r, int num_clients, const char* which) {
  SCOPED_TRACE(which);
  EXPECT_GT(r.commits, 0u);
  EXPECT_EQ(r.transactions_lost, 0u);
  EXPECT_FALSE(r.stalled);
  // Conservation over the measurement window:
  //   started + in_flight(window start) == finished + in_flight(window end)
  // and each client drives one attempt at a time, so both in-flight terms
  // are bounded by the population: |started - finished| <= num_clients.
  const std::uint64_t finished = r.commits + r.aborts;
  const std::uint64_t slack = static_cast<std::uint64_t>(num_clients);
  EXPECT_LE(r.attempts_started, finished + slack);
  EXPECT_LE(finished, r.attempts_started + slack);
  EXPECT_TRUE(r.oracle_enabled);
  EXPECT_GE(r.oracle_commits, r.commits);
}

class SubstrateParityTest
    : public ::testing::TestWithParam<std::pair<Algorithm, CachingMode>> {};

TEST_P(SubstrateParityTest, ConservationAndOracleOnBothSubstrates) {
  const auto [algorithm, caching] = GetParam();
  ExperimentConfig cfg = ParityConfig(algorithm, caching);

  // DES substrate: commit-target driven, virtual time.
  cfg.control.warmup_seconds = 2;
  cfg.control.target_commits = 200;
  cfg.control.max_measure_seconds = 300;
  const Result<RunResult> sim = runner::RunExperiment(cfg);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  CheckInvariants(sim.ValueOrDie(), cfg.system.num_clients, "sim");

  // Real substrate: the same config, wall-clock paced over TCP loopback.
  runner::RealRunOptions options;
  options.warmup_seconds = 0.3;
  options.duration_seconds = 1.2;
  const Result<RunResult> real = runner::RunRealExperiment(cfg, options);
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  CheckInvariants(real.ValueOrDie(), cfg.system.num_clients, "real");
}

// The DESIGN §5c cocktail on real threads + TCP: frame drop + duplicate +
// delay spikes, one hard partition (the carrying TCP connection is killed
// and redialed), one client crash + restart, one server crash + log-replay
// restart, and torn log writes — for every protocol, no transaction may
// be lost, conservation must hold, and the oracle must stay clean.
TEST_P(SubstrateParityTest, RealChaosCocktailSurvives) {
  const auto [algorithm, caching] = GetParam();
  ExperimentConfig cfg = ParityConfig(algorithm, caching);
  cfg.fault.recovery_enabled = true;
  cfg.fault.drop_probability = 0.02;
  cfg.fault.duplicate_probability = 0.01;
  cfg.fault.delay_spike_probability = 0.05;
  cfg.fault.delay_spike_ms = 5.0;
  cfg.fault.torn_write_probability = 0.2;
  config::FaultParams::PartitionEvent part;
  part.node = 0;
  part.at_s = 0.8;
  part.duration_s = 0.4;
  part.hard = true;  // the TCP connection dies with the window
  cfg.fault.partitions.push_back(part);
  config::FaultParams::CrashEvent client_crash;
  client_crash.node = 3;  // its shard drops its traffic while it is down
  client_crash.at_s = 0.6;
  client_crash.downtime_s = 0.3;
  cfg.fault.crashes.push_back(client_crash);
  config::FaultParams::CrashEvent crash;
  crash.node = net::kServerNode;
  crash.at_s = 1.4;
  crash.downtime_s = 0.25;
  cfg.fault.crashes.push_back(crash);

  runner::RealRunOptions options;
  options.warmup_seconds = 0.3;
  options.duration_seconds = 2.2;  // covers every window plus recovery
  const Result<RunResult> real = runner::RunRealExperiment(cfg, options);
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  const RunResult& r = real.ValueOrDie();
  CheckInvariants(r, cfg.system.num_clients, "real-chaos");
  EXPECT_EQ(r.client_crashes, 1u);
  EXPECT_EQ(r.server_crashes, 1u);
  EXPECT_GT(r.recovery_seconds, 0.0);
}

// One client crash window, the same config on both substrates: each
// counts the crash and loses no transaction. On the real substrate the
// crash and restart run on the owning shard's calendar, as on the DES.
TEST(ClientCrashParityTest, OneClientCrashOnBothSubstrates) {
  ExperimentConfig cfg = ParityConfig(Algorithm::kCallbackLocking,
                                      CachingMode::kInterTransaction);
  cfg.fault.recovery_enabled = true;
  config::FaultParams::CrashEvent crash;
  crash.node = 2;
  crash.at_s = 0.8;
  crash.downtime_s = 0.3;
  cfg.fault.crashes.push_back(crash);

  cfg.control.warmup_seconds = 2;
  cfg.control.target_commits = 200;
  cfg.control.max_measure_seconds = 300;
  const Result<RunResult> sim = runner::RunExperiment(cfg);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  CheckInvariants(sim.ValueOrDie(), cfg.system.num_clients, "sim");
  EXPECT_EQ(sim.ValueOrDie().client_crashes, 1u);

  runner::RealRunOptions options;
  options.warmup_seconds = 0.3;
  options.duration_seconds = 1.2;
  const Result<RunResult> real = runner::RunRealExperiment(cfg, options);
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  CheckInvariants(real.ValueOrDie(), cfg.system.num_clients, "real");
  EXPECT_EQ(real.ValueOrDie().client_crashes, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, SubstrateParityTest,
    ::testing::Values(
        std::pair{Algorithm::kTwoPhaseLocking,
                  CachingMode::kInterTransaction},
        std::pair{Algorithm::kCertification, CachingMode::kInterTransaction},
        std::pair{Algorithm::kCallbackLocking,
                  CachingMode::kInterTransaction},
        std::pair{Algorithm::kNoWaitLocking, CachingMode::kInterTransaction},
        std::pair{Algorithm::kNoWaitNotify, CachingMode::kInterTransaction}),
    [](const auto& info) {
      switch (info.param.first) {
        case Algorithm::kTwoPhaseLocking:
          return "TwoPhaseLocking";
        case Algorithm::kCertification:
          return "Certification";
        case Algorithm::kCallbackLocking:
          return "CallbackLocking";
        case Algorithm::kNoWaitLocking:
          return "NoWaitLocking";
        case Algorithm::kNoWaitNotify:
          return "NoWaitNotify";
      }
      return "Unknown";
    });

// ---------------------------------------------------------------------------
// Batched-I/O ordering: the DESIGN.md §5e contract at the transport level
// ---------------------------------------------------------------------------

substrate::Hello OrderingHello(int num_clients) {
  substrate::Hello hello;
  hello.algorithm = 0;
  hello.caching = 0;
  hello.total_pages = 1000;
  hello.num_clients = num_clients;
  hello.page_payload_bytes = 0;  // control frames only: ordering, not bulk
  return hello;
}

// Per-connection FIFO must survive the whole batched path: many frames
// per sendmsg on the sender, many frames per recv on the server loop,
// each decoded and handed to the sink in stream order. Two connections send
// interleaved seq-stamped bursts; the server-side sink must observe every
// sender's sequence gapless and in order.
TEST(BatchedOrderingTest, PerConnectionFifoUnderBatchDrain) {
  constexpr int kClients = 4;        // ids 0,1 on conn A; 2,3 on conn B
  constexpr std::uint64_t kPerSender = 2000;
  constexpr int kBurst = 32;         // frames batched into one flush

  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  std::map<int, std::uint64_t> next_seq;   // loop thread only
  std::atomic<std::uint64_t> received{0};
  bool order_ok = true;                    // loop thread only
  server_sub.set_message_sink([&](net::MessagePtr msg) {
    if (msg->seq != next_seq[msg->src]++) {
      order_ok = false;
    }
    received.fetch_add(1, std::memory_order_relaxed);
  });

  const substrate::Hello hello = OrderingHello(kClients);
  std::string error;
  auto server = substrate::TcpServerTransport::Listen(
      0, hello, &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;
  substrate::TcpServerTransport* st = server.get();
  server_sub.set_flush_hook([st] { return st->Flush(); });
  std::thread loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });

  // One sender thread per connection: the single-writer contract is per
  // connection, and each thread plays that connection's loop thread.
  std::vector<std::unique_ptr<sim::Simulator>> client_sims;
  std::vector<std::unique_ptr<substrate::RealtimeSubstrate>> client_subs;
  std::vector<std::unique_ptr<substrate::TcpClientTransport>> clients;
  for (int c = 0; c < 2; ++c) {
    client_sims.push_back(std::make_unique<sim::Simulator>());
    client_subs.push_back(std::make_unique<substrate::RealtimeSubstrate>(
        client_sims.back().get()));
    substrate::Hello ch = hello;
    ch.client_lo = 2 * c;
    ch.client_hi = 2 * c + 2;
    auto client = substrate::TcpClientTransport::Connect(
        "127.0.0.1", server->port(), ch, client_subs.back().get(), &error);
    ASSERT_NE(client, nullptr) << error;
    clients.push_back(std::move(client));
  }
  std::vector<std::thread> senders;
  for (int c = 0; c < 2; ++c) {
    substrate::TcpClientTransport* transport = clients[
        static_cast<std::size_t>(c)].get();
    senders.emplace_back([transport, c] {
      net::Message msg;
      msg.type = net::MsgType::kNoWaitLock;
      msg.dst = net::kServerNode;
      msg.pages.push_back(1);
      for (int id = 2 * c; id < 2 * c + 2; ++id) {
        msg.src = id;
        for (std::uint64_t i = 0; i < kPerSender; ++i) {
          msg.seq = i;
          transport->Deliver(msg);
          if ((i + 1) % kBurst == 0) {
            while (!transport->Flush()) {
              std::this_thread::yield();
            }
          }
        }
        while (!transport->Flush()) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : senders) {
    t.join();
  }

  constexpr std::uint64_t kTotal = kClients * kPerSender;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received.load(std::memory_order_relaxed) < kTotal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server_sub.Stop();
  loop.join();
  for (auto& client : clients) {
    client->Close();
  }
  server->Close();

  EXPECT_EQ(received.load(), kTotal);
  EXPECT_TRUE(order_ok) << "a sender's sequence arrived reordered or gapped";
  for (int id = 0; id < kClients; ++id) {
    EXPECT_EQ(next_seq[id], kPerSender) << "client " << id;
  }
  EXPECT_EQ(server->unroutable_drops(), 0u);
}

// A connection that departs (a finished or killed ccload run) must not
// wedge the server: messages routed to it are counted and dropped, like
// mail to a crashed workstation.
TEST(BatchedOrderingTest, DepartedPeerDropsAreCounted) {
  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  server_sub.set_message_sink([](net::MessagePtr) {});

  const substrate::Hello hello = OrderingHello(2);
  std::string error;
  auto server = substrate::TcpServerTransport::Listen(
      0, hello, &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;
  substrate::TcpServerTransport* st = server.get();
  server_sub.set_flush_hook([st] { return st->Flush(); });
  std::thread loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });

  sim::Simulator client_sim;
  substrate::RealtimeSubstrate client_sub(&client_sim);
  substrate::Hello ch = hello;
  ch.client_lo = 0;
  ch.client_hi = 2;
  auto client = substrate::TcpClientTransport::Connect(
      "127.0.0.1", server->port(), ch, &client_sub, &error);
  ASSERT_NE(client, nullptr) << error;
  client->Close();  // the peer departs

  // Keep delivering (on the loop thread, as the protocol would) until the
  // departure is observed; whichever way the race lands — route already
  // deregistered, or queued bytes erroring the next flush — the message
  // must die counted, never silently.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server->unroutable_drops() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    server_sub.PostControl([st] {
      net::Message msg;
      msg.type = net::MsgType::kAbortNotice;
      msg.src = net::kServerNode;
      msg.dst = 0;
      st->Deliver(msg);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server_sub.Stop();
  loop.join();
  server->Close();
  EXPECT_GT(server->unroutable_drops(), 0u);
}

// Deliver routes through a loop-thread snapshot of the route table, so a
// route change must reach it: a shard owning client ids [0,8) departs and
// a replacement shard registers the same ids. Replies then reach the
// replacement, and none is counted unroutable after its hello.
TEST(BatchedOrderingTest, ReplacementShardInheritsTheRoutes) {
  constexpr int kClients = 8;
  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  server_sub.set_message_sink([](net::MessagePtr) {});
  const substrate::Hello hello = OrderingHello(kClients);
  std::string error;
  auto server = substrate::TcpServerTransport::Listen(
      0, hello, &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;
  substrate::TcpServerTransport* st = server.get();
  server_sub.set_flush_hook([st] { return st->Flush(); });
  std::thread loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });
  const auto reply_to_every_client = [&server_sub, st] {
    server_sub.PostControl([st] {
      for (int id = 0; id < kClients; ++id) {
        net::Message msg;
        msg.type = net::MsgType::kAbortNotice;
        msg.src = net::kServerNode;
        msg.dst = id;
        st->Deliver(msg);
      }
    });
  };
  const auto wait_for_frames = [](substrate::TcpClientTransport* shard,
                                  std::uint64_t frames) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (shard->frames_received() < frames &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return shard->frames_received();
  };

  substrate::Hello shard_hello = hello;
  shard_hello.client_lo = 0;
  shard_hello.client_hi = kClients;
  sim::Simulator first_sim;
  substrate::RealtimeSubstrate first_sub(&first_sim);
  first_sub.set_message_sink([](net::MessagePtr) {});
  auto first = substrate::TcpClientTransport::Connect(
      "127.0.0.1", server->port(), shard_hello, &first_sub, &error);
  ASSERT_NE(first, nullptr) << error;
  std::thread first_loop([&first_sub] {
    first_sub.Run(60 * sim::kTicksPerSecond);
  });
  // The server's snapshot now routes [0,8) to the first shard.
  reply_to_every_client();
  EXPECT_EQ(wait_for_frames(first.get(), kClients), std::uint64_t{kClients});
  first_sub.Stop();
  first_loop.join();
  first->Close();  // the shard departs

  // The server refuses the ids until it has seen the departure; retry.
  sim::Simulator second_sim;
  substrate::RealtimeSubstrate second_sub(&second_sim);
  second_sub.set_message_sink([](net::MessagePtr) {});
  std::unique_ptr<substrate::TcpClientTransport> second;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (second == nullptr && std::chrono::steady_clock::now() < deadline) {
    second = substrate::TcpClientTransport::Connect(
        "127.0.0.1", server->port(), shard_hello, &second_sub, &error);
    if (second == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_NE(second, nullptr) << error;
  std::thread second_loop([&second_sub] {
    second_sub.Run(60 * sim::kTicksPerSecond);
  });
  const std::uint64_t drops_at_hello = server->unroutable_drops();
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    reply_to_every_client();
  }
  EXPECT_EQ(wait_for_frames(second.get(), kRounds * kClients),
            std::uint64_t{kRounds * kClients});
  EXPECT_EQ(server->unroutable_drops(), drops_at_hello);

  second_sub.Stop();
  second_loop.join();
  second->Close();
  server_sub.Stop();
  loop.join();
  server->Close();
}

// ---------------------------------------------------------------------------
// The loop reads its own sockets (DESIGN.md §5e)
// ---------------------------------------------------------------------------

// A frame that lands while the loop is parked must wake it through its
// epoll set: a missed wake would strand the burst until the loop's
// one-second wait cap. A peer writes bursts to the server's connection
// while the server loop is parked on a calendar entry an hour away; every
// burst must arrive well inside that cap.
TEST(LoopSourceTest, BurstsWakeALoopParkedOnADistantEntry) {
  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  std::atomic<std::uint64_t> received{0};
  server_sub.set_message_sink([&received](net::MessagePtr) {
    received.fetch_add(1, std::memory_order_relaxed);
  });
  const substrate::Hello hello = OrderingHello(2);
  std::string error;
  auto server = substrate::TcpServerTransport::Listen(
      0, hello, &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;
  // The test thread plays the client's loop thread.
  sim::Simulator client_sim;
  substrate::RealtimeSubstrate client_sub(&client_sim);
  substrate::Hello ch = hello;
  ch.client_lo = 0;
  ch.client_hi = 2;
  auto client = substrate::TcpClientTransport::Connect(
      "127.0.0.1", server->port(), ch, &client_sub, &error);
  ASSERT_NE(client, nullptr) << error;
  server_sim.ScheduleAfter(3600 * sim::kTicksPerSecond, [] {});
  std::thread loop([&server_sub] {
    server_sub.Run(7200 * sim::kTicksPerSecond);
  });

  constexpr auto kPrompt = std::chrono::milliseconds(500);
  std::mt19937 rng(7);
  net::Message msg;
  msg.type = net::MsgType::kNoWaitLock;
  msg.src = 0;
  msg.dst = net::kServerNode;
  std::uint64_t sent = 0;
  int late_bursts = 0;
  bool stranded = false;
  for (int burst = 0; burst < 40 && !stranded && late_bursts == 0; ++burst) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));  // park
    const int frames = 1 + static_cast<int>(rng() % 24);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < frames; ++i) {
      msg.seq = sent++;
      client->Deliver(msg);
    }
    while (!client->Flush()) {
      std::this_thread::yield();
    }
    while (received.load(std::memory_order_relaxed) < sent &&
           std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const auto waited = std::chrono::steady_clock::now() - start;
    stranded = received.load(std::memory_order_relaxed) < sent;
    if (waited > kPrompt) {
      ++late_bursts;
    }
  }
  server_sub.Stop();
  loop.join();
  client->Close();
  server->Close();
  EXPECT_FALSE(stranded) << "a burst was never delivered";
  EXPECT_EQ(received.load(), sent);
  EXPECT_EQ(late_bursts, 0) << "bursts waited out the loop's sleep";
}

// Handshakes stay off the loop: a peer that connects and never sends its
// Hello must not stop a shard that arrives after it from handshaking and
// exchanging messages with the running server.
TEST(LoopSourceTest, SilentPeerDoesNotBlockTheNextHandshake) {
  constexpr std::uint64_t kRequests = 8;
  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  const substrate::Hello hello = OrderingHello(2);
  std::string error;
  auto server = substrate::TcpServerTransport::Listen(
      0, hello, &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;
  substrate::TcpServerTransport* st = server.get();
  server_sub.set_flush_hook([st] { return st->Flush(); });
  server_sub.set_message_sink([st](net::MessagePtr request) {
    net::Message reply;  // echo the request's sequence number
    reply.type = net::MsgType::kAbortNotice;
    reply.src = net::kServerNode;
    reply.dst = request->src;
    reply.seq = request->seq;
    st->Deliver(reply);
  });
  std::thread server_loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });

  const int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const bool silent_connected =
      silent >= 0 && ::connect(silent, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr)) == 0;

  sim::Simulator client_sim;
  substrate::RealtimeSubstrate client_sub(&client_sim);
  std::atomic<std::uint64_t> replies{0};
  client_sub.set_message_sink([&replies](net::MessagePtr reply) {
    if (reply->seq == replies.load(std::memory_order_relaxed)) {
      replies.fetch_add(1, std::memory_order_relaxed);  // in order only
    }
  });
  substrate::Hello ch = hello;
  ch.client_lo = 0;
  ch.client_hi = 2;
  auto client = substrate::TcpClientTransport::Connect(
      "127.0.0.1", server->port(), ch, &client_sub, &error);
  if (client != nullptr) {
    substrate::TcpClientTransport* ct = client.get();
    client_sub.set_flush_hook([ct] { return ct->Flush(); });
    std::thread client_loop([&client_sub] {
      client_sub.Run(60 * sim::kTicksPerSecond);
    });
    client_sub.PostControl([ct] {
      net::Message request;
      request.type = net::MsgType::kNoWaitLock;
      request.src = 1;
      request.dst = net::kServerNode;
      for (std::uint64_t i = 0; i < kRequests; ++i) {
        request.seq = i;
        ct->Deliver(request);
      }
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (replies.load(std::memory_order_relaxed) < kRequests &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client_sub.Stop();
    client_loop.join();
    client->Close();
  }
  server_sub.Stop();
  server_loop.join();
  server->Close();  // ejects the silent peer's handshake
  if (silent >= 0) {
    ::close(silent);
  }
  EXPECT_TRUE(silent_connected);
  ASSERT_NE(client, nullptr) << error;
  EXPECT_EQ(replies.load(), kRequests);
  EXPECT_EQ(server->connections_accepted(), 1u);
}

int TaskCount() {
  int tasks = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++tasks;
  }
  return tasks;
}

// Fault-free, a ServerNode runs on its loop thread plus the idle acceptor
// and each ClientShard on its loop thread alone: once the handshake
// threads have handed their sockets over, a server with two connected
// shards adds exactly four threads to the process.
TEST(LoopSourceTest, FaultFreeNodesRunOnTheirLoopThreads) {
  ExperimentConfig cfg = ParityConfig(Algorithm::kTwoPhaseLocking,
                                      CachingMode::kInterTransaction);
  cfg.checker.enabled = false;  // the checker's pipeline has its own thread
  // A sanitizer runtime may start a helper thread with the process's first
  // thread; start one first so that helper is in the baseline.
  std::thread([] {}).join();
  const int baseline = TaskCount();

  substrate::ServerNode server_node(cfg, cfg.control.seed);
  std::string error;
  auto server_tcp = substrate::TcpServerTransport::Listen(
      0, substrate::MakeHello(cfg), &server_node.substrate(), &error);
  ASSERT_NE(server_tcp, nullptr) << error;
  server_node.AttachTransport(server_tcp.get());
  server_node.Start();
  runner::ShardSet load;
  const Status connected =
      runner::ConnectShards(cfg, "127.0.0.1", server_tcp->port(), 0,
                            cfg.system.num_clients, 2, &load);
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  ASSERT_EQ(load.shards.size(), 2u);

  std::thread server_loop([&server_node] {
    server_node.RunLoop(600 * sim::kTicksPerSecond);
  });
  std::vector<std::thread> shard_loops;
  for (auto& shard : load.shards) {
    substrate::ClientShard* s = shard.get();
    shard_loops.emplace_back(
        [s] { s->RunLoop(0, sim::SecondsToTicks(1.5)); });
  }
  const int expected = baseline + 3 + 1;  // three loops and the acceptor
  int tasks = TaskCount();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (tasks != expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    tasks = TaskCount();
  }
  for (std::thread& t : shard_loops) {
    t.join();
  }
  for (auto& transport : load.transports) {
    transport->Close();
  }
  server_node.substrate().Stop();
  server_loop.join();
  server_tcp->Close();

  EXPECT_EQ(tasks, expected)
      << "threads beyond the loops and the acceptor while running";
  std::uint64_t commits = 0;
  for (const auto& shard : load.shards) {
    commits += shard->metrics().commits();
  }
  EXPECT_GT(commits, 0u);
}

}  // namespace
}  // namespace ccsim
