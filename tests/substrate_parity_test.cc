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
#include <poll.h>
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
#include "substrate/wire.h"
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

// A route change must reach Deliver: a shard owning client ids [0,8)
// departs and a replacement shard registers the same ids. Replies then
// reach the replacement, and none is counted unroutable after its hello.
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
  // The server now routes [0,8) to the first shard.
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
  server_sim.ScheduleAfter(3600 * sim::kTicksPerSecond, [] {});
  std::thread loop([&server_sub] {
    server_sub.Run(7200 * sim::kTicksPerSecond);
  });
  // The test thread plays the client's loop thread.
  sim::Simulator client_sim;
  substrate::RealtimeSubstrate client_sub(&client_sim);
  substrate::Hello ch = hello;
  ch.client_lo = 0;
  ch.client_hi = 2;
  auto client = substrate::TcpClientTransport::Connect(
      "127.0.0.1", server->port(), ch, &client_sub, &error);
  if (client == nullptr) {
    server_sub.Stop();
    loop.join();
  }
  ASSERT_NE(client, nullptr) << error;

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

// A peer that connects and never sends its Hello must not stop a shard
// that arrives after it from handshaking and exchanging messages with the
// running server.
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
  server->Close();  // closes the silent peer's half-open connection
  if (silent >= 0) {
    ::close(silent);
  }
  EXPECT_TRUE(silent_connected);
  ASSERT_NE(client, nullptr) << error;
  EXPECT_EQ(replies.load(), kRequests);
  EXPECT_EQ(server->connections_accepted(), 1u);
}

// A server that accepts the connection but never answers the Hello must
// fail the client's Connect within its handshake deadline, not hang it.
// The "server" is a raw listening socket that is never read: the kernel
// completes the TCP handshake, and no Hello ever comes back.
TEST(LoopSourceTest, SilentServerFailsTheConnect) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t addr_len = sizeof(addr);
  const bool listening =
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0 &&
      ::listen(listener, 4) == 0 &&
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0;
  if (!listening) {
    ::close(listener);
  }
  ASSERT_TRUE(listening);

  sim::Simulator client_sim;
  substrate::RealtimeSubstrate client_sub(&client_sim);
  substrate::Hello ch = OrderingHello(2);
  ch.client_lo = 0;
  ch.client_hi = 2;
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  auto client = substrate::TcpClientTransport::Connect(
      "127.0.0.1", ntohs(addr.sin_port), ch, &client_sub, &error);
  const auto waited = std::chrono::steady_clock::now() - start;
  ::close(listener);

  EXPECT_EQ(client, nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_LT(waited, substrate::kHandshakeTimeout + std::chrono::seconds(1))
      << "Connect outlived its handshake deadline";
}

// The server reads a peer's Hello through the connection's own splitter,
// so frames that arrive behind it in the same segment must still reach
// the sink: a raw peer sends its Hello and three messages in one send().
TEST(LoopSourceTest, FramesBehindTheHelloAreDecoded) {
  constexpr std::uint64_t kMessages = 3;
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
  std::thread server_loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });

  substrate::Hello peer_hello = hello;
  peer_hello.client_lo = 0;
  peer_hello.client_hi = 2;
  std::vector<std::uint8_t> bytes;
  substrate::EncodeHello(peer_hello, &bytes);
  net::Message msg;
  msg.type = net::MsgType::kNoWaitLock;
  msg.src = 0;
  msg.dst = net::kServerNode;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    substrate::EncodeMessage(msg, hello.page_payload_bytes, &bytes);
  }
  const int peer = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const bool sent =
      peer >= 0 &&
      ::connect(peer, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0 &&
      ::send(peer, bytes.data(), bytes.size(), 0) ==
          static_cast<ssize_t>(bytes.size());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (sent && received.load(std::memory_order_relaxed) < kMessages &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_sub.Stop();
  server_loop.join();
  server->Close();
  if (peer >= 0) {
    ::close(peer);
  }
  EXPECT_TRUE(sent);
  EXPECT_EQ(received.load(), kMessages);
  EXPECT_EQ(server->connections_accepted(), 1u);
}

int EntryCount(const char* dir) {
  int entries = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++entries;
  }
  return entries;
}

// A long-lived server frees each departed shard's connection: three shards
// connect one after another, each exchanges a few frames with the running
// server and closes, and the process's open descriptors return to their
// level before the first connect.
TEST(LoopSourceTest, DepartedShardsReleaseTheirSockets) {
  constexpr std::uint64_t kRequests = 4;
  constexpr int kShards = 3;
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
    net::Message reply;
    reply.type = net::MsgType::kAbortNotice;
    reply.src = net::kServerNode;
    reply.dst = request->src;
    st->Deliver(reply);
  });
  std::thread server_loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });
  const int baseline = EntryCount("/proc/self/fd");

  std::vector<std::uint64_t> replies_per_shard;
  for (int shard = 0; shard < kShards; ++shard) {
    sim::Simulator client_sim;
    substrate::RealtimeSubstrate client_sub(&client_sim);
    std::atomic<std::uint64_t> replies{0};
    client_sub.set_message_sink([&replies](net::MessagePtr) {
      replies.fetch_add(1, std::memory_order_relaxed);
    });
    substrate::Hello ch = hello;
    ch.client_lo = 0;
    ch.client_hi = 2;
    // The server refuses the ids until it has seen the last departure.
    std::unique_ptr<substrate::TcpClientTransport> client;
    const auto connect_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (client == nullptr &&
           std::chrono::steady_clock::now() < connect_deadline) {
      client = substrate::TcpClientTransport::Connect(
          "127.0.0.1", server->port(), ch, &client_sub, &error);
      if (client == nullptr) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (client == nullptr) {
      break;
    }
    substrate::TcpClientTransport* ct = client.get();
    client_sub.set_flush_hook([ct] { return ct->Flush(); });
    std::thread client_loop([&client_sub] {
      client_sub.Run(60 * sim::kTicksPerSecond);
    });
    client_sub.PostControl([ct] {
      net::Message request;
      request.type = net::MsgType::kNoWaitLock;
      request.src = 0;
      request.dst = net::kServerNode;
      for (std::uint64_t i = 0; i < kRequests; ++i) {
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
    replies_per_shard.push_back(replies.load());
  }

  // The server sees each departure as EOF on its loop.
  int fds = EntryCount("/proc/self/fd");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fds != baseline && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fds = EntryCount("/proc/self/fd");
  }
  server_sub.Stop();
  server_loop.join();
  server->Close();

  EXPECT_EQ(replies_per_shard,
            std::vector<std::uint64_t>(kShards, kRequests))
      << error;
  EXPECT_EQ(fds, baseline) << "departed shards' sockets are still open";
  EXPECT_EQ(server->connections_accepted(),
            static_cast<std::uint64_t>(kShards));
}

// A peer that connects and never sends its Hello is dropped at the
// server's handshake deadline: the process's open descriptors return to
// their level before the connect while the peer still holds its end open.
TEST(LoopSourceTest, SilentPeerIsDroppedAtTheHandshakeDeadline) {
  sim::Simulator server_sim;
  substrate::RealtimeSubstrate server_sub(&server_sim);
  server_sub.set_message_sink([](net::MessagePtr) {});
  std::string error;
  auto server = substrate::TcpServerTransport::Listen(
      0, OrderingHello(2), &server_sub, &error);
  ASSERT_NE(server, nullptr) << error;
  std::thread server_loop([&server_sub] {
    server_sub.Run(60 * sim::kTicksPerSecond);
  });

  const int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  const int baseline = EntryCount("/proc/self/fd");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const auto deadline = std::chrono::steady_clock::now() +
                        substrate::kHandshakeTimeout +
                        std::chrono::seconds(1);
  const bool connected =
      silent >= 0 && ::connect(silent, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr)) == 0;
  // Wait for the server's socket to appear, then to go.
  bool accepted = false;
  int fds = baseline;
  while (connected && std::chrono::steady_clock::now() < deadline) {
    fds = EntryCount("/proc/self/fd");
    if (fds > baseline) {
      accepted = true;
    } else if (accepted) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server_sub.Stop();
  server_loop.join();
  server->Close();
  if (silent >= 0) {
    ::close(silent);
  }
  EXPECT_TRUE(connected);
  EXPECT_TRUE(accepted) << "the server never accepted the peer";
  EXPECT_EQ(fds, baseline)
      << "the silent peer's connection outlived the handshake deadline";
  EXPECT_EQ(server->connections_accepted(), 0u);
}

// Fault-free, a ServerNode and each ClientShard run on their loop threads
// alone: the server accepts, handshakes and runs its checker on its loop,
// so a server with two connected shards adds exactly three threads to the
// process.
TEST(LoopSourceTest, FaultFreeNodesRunOnTheirLoopThreads) {
  ExperimentConfig cfg = ParityConfig(Algorithm::kTwoPhaseLocking,
                                      CachingMode::kInterTransaction);
  // A sanitizer runtime may start a helper thread with the process's first
  // thread; start one first so that helper is in the baseline.
  std::thread([] {}).join();
  const int baseline = EntryCount("/proc/self/task");

  substrate::ServerNode server_node(cfg, cfg.control.seed);
  std::string error;
  auto server_tcp = substrate::TcpServerTransport::Listen(
      0, substrate::MakeHello(cfg), &server_node.substrate(), &error);
  ASSERT_NE(server_tcp, nullptr) << error;
  server_node.AttachTransport(server_tcp.get());
  server_node.Start();
  std::thread server_loop([&server_node] {
    server_node.RunLoop(600 * sim::kTicksPerSecond);
  });
  runner::ShardSet load;
  const Status connected =
      runner::ConnectShards(cfg, "127.0.0.1", server_tcp->port(), 0,
                            cfg.system.num_clients, 2, &load);
  if (!connected.ok() || load.shards.size() != 2u) {
    server_node.substrate().Stop();
    server_loop.join();
  }
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  ASSERT_EQ(load.shards.size(), 2u);

  std::vector<std::thread> shard_loops;
  for (auto& shard : load.shards) {
    substrate::ClientShard* s = shard.get();
    shard_loops.emplace_back(
        [s] { s->RunLoop(0, sim::SecondsToTicks(1.5)); });
  }
  const int expected = baseline + 3;  // three loops
  int tasks = EntryCount("/proc/self/task");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (tasks != expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    tasks = EntryCount("/proc/self/task");
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
      << "threads beyond the loops while running";
  std::uint64_t commits = 0;
  for (const auto& shard : load.shards) {
    commits += shard->metrics().commits();
  }
  EXPECT_GT(commits, 0u);
}

// With the recovery layer on and no wire faults, the bare transport
// redials on the shard's own loop: a shard whose connection is cut
// mid-run reconnects once and keeps committing, and no thread beyond the
// three loops appears at any point.
TEST(LoopSourceTest, ACutShardRedialsOnItsLoop) {
  ExperimentConfig cfg = ParityConfig(Algorithm::kTwoPhaseLocking,
                                      CachingMode::kInterTransaction);
  cfg.fault.recovery_enabled = true;
  std::thread([] {}).join();  // see FaultFreeNodesRunOnTheirLoopThreads
  const int baseline = EntryCount("/proc/self/task");

  substrate::ServerNode server_node(cfg, cfg.control.seed);
  std::string error;
  auto server_tcp = substrate::TcpServerTransport::Listen(
      0, substrate::MakeHello(cfg), &server_node.substrate(), &error);
  ASSERT_NE(server_tcp, nullptr) << error;
  server_node.AttachTransport(server_tcp.get());
  server_node.Start();
  std::thread server_loop([&server_node] {
    server_node.RunLoop(600 * sim::kTicksPerSecond);
  });
  runner::ShardSet load;
  const Status connected =
      runner::ConnectShards(cfg, "127.0.0.1", server_tcp->port(), 0,
                            cfg.system.num_clients, 2, &load);
  if (!connected.ok() || load.shards.size() != 2u) {
    server_node.substrate().Stop();
    server_loop.join();
  }
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  ASSERT_EQ(load.shards.size(), 2u);

  std::vector<std::thread> shard_loops;
  for (auto& shard : load.shards) {
    substrate::ClientShard* s = shard.get();
    shard_loops.emplace_back(
        [s] { s->RunLoop(0, 600 * sim::kTicksPerSecond); });
  }
  const int expected = baseline + 3;  // three loops
  int tasks = EntryCount("/proc/self/task");
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (tasks != expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    tasks = EntryCount("/proc/self/task");
  }

  // The cut shard's commits, read on its loop thread.
  substrate::ClientShard* cut = load.shards[0].get();
  substrate::TcpClientTransport* cut_tcp = load.transports[0].get();
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> commits_at_cut{0};
  const auto read_commits = [cut, &commits] {
    cut->substrate().PostControl(
        [cut, &commits] { commits.store(cut->metrics().commits()); });
  };
  // Polls until `done` or 20 s pass, sampling the process's threads.
  int stray_samples = 0;
  const auto wait_for = [&](const auto& done) {
    deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      read_commits();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (EntryCount("/proc/self/task") != expected) {
        ++stray_samples;
      }
    }
  };
  wait_for([&commits] { return commits.load() > 0; });
  cut->substrate().PostControl([cut, cut_tcp, &commits_at_cut] {
    commits_at_cut.store(cut->metrics().commits());
    cut_tcp->AbortConnection();
  });
  wait_for([&] {
    return cut_tcp->reconnects() >= 1 && commits_at_cut.load() > 0 &&
           commits.load() > commits_at_cut.load();
  });

  for (auto& shard : load.shards) {
    shard->substrate().Stop();
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

  EXPECT_EQ(tasks, expected) << "threads beyond the loops while running";
  EXPECT_EQ(stray_samples, 0) << "a thread came and went around the redial";
  EXPECT_EQ(cut_tcp->reconnects(), 1u);
  EXPECT_EQ(load.transports[1]->reconnects(), 0u);
  EXPECT_GT(commits_at_cut.load(), 0u);
  EXPECT_GT(commits.load(), commits_at_cut.load())
      << "no commits after the redial";
}

// Accepts one connection on `listener`, waiting at most `wait`; -1 when
// none came.
int AcceptWithin(int listener, std::chrono::milliseconds wait) {
  pollfd ready{listener, POLLIN, 0};
  if (::poll(&ready, 1, static_cast<int>(wait.count())) != 1) {
    return -1;
  }
  return ::accept(listener, nullptr, nullptr);
}

// A redial has a handshake deadline of its own: a server that accepts a
// redial and never answers its Hello is given up on, and the shard dials
// again instead of waiting out the run. The "server" is a raw listener
// that answers the shard's first Hello, cuts that connection, then stays
// silent on the next accept.
TEST(LoopSourceTest, ASilentRedialIsDialedAgain) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t addr_len = sizeof(addr);
  const bool listening =
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0 &&
      ::listen(listener, 4) == 0 &&
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0;
  if (!listening) {
    ::close(listener);
  }
  ASSERT_TRUE(listening);

  const substrate::Hello hello = OrderingHello(2);
  std::vector<std::uint8_t> hello_frame;
  substrate::EncodeHello(hello, &hello_frame);
  int first = -1;
  std::thread answer([&] {
    first = AcceptWithin(listener, std::chrono::seconds(5));
    if (first >= 0) {
      ::send(first, hello_frame.data(), hello_frame.size(), 0);
    }
  });
  sim::Simulator client_sim;
  substrate::RealtimeSubstrate client_sub(&client_sim);
  substrate::Hello ch = hello;
  ch.client_lo = 0;
  ch.client_hi = 2;
  std::string error;
  auto client = substrate::TcpClientTransport::Connect(
      "127.0.0.1", ntohs(addr.sin_port), ch, &client_sub, &error);
  answer.join();
  if (client == nullptr) {
    ::close(listener);
    if (first >= 0) {
      ::close(first);
    }
  }
  ASSERT_NE(client, nullptr) << error;
  client->EnableReconnect();
  std::thread client_loop([&client_sub] {
    client_sub.Run(60 * sim::kTicksPerSecond);
  });

  ::close(first);  // the cut: the shard redials after its backoff
  const int second = AcceptWithin(listener, std::chrono::seconds(5));
  const int third =
      second < 0 ? -1
                 : AcceptWithin(listener, substrate::kHandshakeTimeout +
                                              std::chrono::milliseconds(200) +
                                              std::chrono::seconds(1));
  client_sub.Stop();
  client_loop.join();
  client->Close();
  for (const int fd : {listener, second, third}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  EXPECT_GE(second, 0) << "the shard never redialed after the cut";
  EXPECT_GE(third, 0)
      << "the shard waited on a silent redial past its handshake deadline";
  EXPECT_EQ(client->reconnects(), 0u);
}

}  // namespace
}  // namespace ccsim
