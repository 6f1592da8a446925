// Fast perf-smoke checks for the event kernel (label: perf-smoke).
//
// The load-bearing property is *allocation-free steady state*: after a
// short warmup (which grows the calendar's heap and same-time lane, the
// block pool's free lists, and event waiter vectors to their working
// capacity), the Delay/resume hot path, the same-time lane and the Event
// broadcast path must perform zero heap allocations. This is
// deterministic — asserted exactly, not statistically — via a counting
// replacement of global operator new.
//
// A deliberately conservative throughput floor rides along to catch
// catastrophic regressions (an accidental O(n)-per-event calendar, say);
// it is a tripwire, not a benchmark — bench/micro_kernel.cc measures the
// real numbers.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "client/client_cache.h"
#include "config/params.h"
#include "net/message.h"
#include "runner/experiment.h"
#include "sim/process.h"
#include "sim/event.h"
#include "sim/simulator.h"
#include "substrate/realtime.h"
#include "substrate/tcp.h"
#include "substrate/wire.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
/// Allocations above the largest size glibc's per-thread cache (tcache)
/// serves; each of these takes the slower arena path.
constexpr std::size_t kLargeAllocationBytes = 1024;
std::atomic<std::uint64_t> g_large_allocations{0};
/// Allocations made by the calling thread only (a run's checker verifier
/// thread allocates too).
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_allocations;
  if (size > kLargeAllocationBytes) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* ptr = std::malloc(size ? size : 1)) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Pairs with the malloc-backed operator new above; GCC cannot see that
// every pointer reaching these came from malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#pragma GCC diagnostic pop

namespace ccsim::sim {
namespace {

std::uint64_t AllocationsNow() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t LargeAllocationsNow() {
  return g_large_allocations.load(std::memory_order_relaxed);
}

Process Ticker(Simulator& sim, Ticks period, std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    co_await sim.Delay(period);
  }
}

TEST(PerfSmokeTest, DelayHotPathIsAllocationFreeAfterWarmup) {
  Simulator sim;
  for (int i = 0; i < 64; ++i) {
    sim.Spawn(Ticker(sim, 1 + (i % 4), 1u << 20));
  }
  sim.Run(1000);  // warmup: the calendar's heap reaches capacity
  const std::uint64_t before = AllocationsNow();
  const std::uint64_t processed_before = sim.events_processed();
  sim.Run(20000);
  EXPECT_EQ(AllocationsNow(), before)
      << "Delay/ScheduleResumeAt steady state allocated";
  EXPECT_GT(sim.events_processed(), processed_before + 100000u);
  sim.Shutdown();
}

Process Broadcaster(Simulator& sim, Event& event, std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    co_await sim.Delay(1);
    event.Signal();
  }
}

Process Listener(Simulator& sim, Event& event, std::uint64_t rounds) {
  (void)sim;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    co_await event.Wait();
  }
}

TEST(PerfSmokeTest, EventBroadcastIsAllocationFreeAfterWarmup) {
  Simulator sim;
  Event event(&sim);
  for (int i = 0; i < 32; ++i) {
    sim.Spawn(Listener(sim, event, 1u << 20));
  }
  sim.Spawn(Broadcaster(sim, event, 1u << 20));
  sim.Run(100);  // warmup: waiter and scratch vectors reach capacity
  const std::uint64_t before = AllocationsNow();
  sim.Run(5000);
  EXPECT_EQ(AllocationsNow(), before)
      << "Event::Signal broadcast steady state allocated";
  sim.Shutdown();
}

Process Yielder(Simulator& sim) { co_await sim.Delay(0); }

/// Each tick: spawns a short-lived process, yields, wakes the listeners and
/// yields again — all of it scheduled at Now(), on the same-time lane.
Process SameTimeTicker(Simulator& sim, Event& event, std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    co_await sim.Delay(1);
    sim.Spawn(Yielder(sim));
    co_await sim.Delay(0);
    event.Signal();
    co_await sim.Delay(0);
  }
}

TEST(PerfSmokeTest, SameTimeLaneIsAllocationFreeAfterWarmup) {
  Simulator sim;
  Event event(&sim);
  for (int i = 0; i < 16; ++i) {
    sim.Spawn(Listener(sim, event, 1u << 20));
  }
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(SameTimeTicker(sim, event, 1u << 20));
  }
  sim.Run(100);  // warmup: the lane, waiter vectors and frame pool
  const std::uint64_t before = AllocationsNow();
  const std::uint64_t processed_before = sim.events_processed();
  sim.Run(5000);
  EXPECT_EQ(AllocationsNow(), before)
      << "Spawn/Delay(0)/Signal same-time steady state allocated";
  // Per tick: 4 tickers x (resume, Yielder's 2 steps, 2 yields) plus the
  // listeners' wakeups, over 30 events.
  EXPECT_GT(sim.events_processed(), processed_before + 4900u * 30u);
  sim.Shutdown();
}

TEST(PerfSmokeTest, DelayThroughputFloor) {
  Simulator sim;
  for (int i = 0; i < 64; ++i) {
    sim.Spawn(Ticker(sim, 1, 1u << 20));
  }
  sim.Run(100);  // warmup
  const std::uint64_t start_events = sim.events_processed();
  const auto start = std::chrono::steady_clock::now();
  sim.Run(10000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::uint64_t events = sim.events_processed() - start_events;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  const double events_per_sec = static_cast<double>(events) / seconds;
  // ~630k events in well under a second even in a debug build; the old
  // kernel managed >10M/s optimized. 500k/s only trips on a blowup.
  EXPECT_GT(events_per_sec, 500e3);
  sim.Shutdown();
}

// ---------------------------------------------------------------------------
// Message-path allocation accounting (the SmallVector conversion's contract)
// ---------------------------------------------------------------------------

TEST(PerfSmokeTest, MessagePathIsAllocationFreeWithinInlineCapacity) {
  // A transaction touches 4-12 pages (Table 5), and net::Message's lists
  // carry 12 inline slots — so building, copying, and moving a full-sized
  // message, and the reply built from it, must never reach the heap. This
  // is the steady-state client/server message path: requests and replies
  // are filled fresh per RPC, and fault handling copies them (duplicates,
  // retransmits, reply caches).
  std::uint64_t sink = 0;
  const std::uint64_t before = AllocationsNow();
  for (int iter = 0; iter < 1000; ++iter) {
    net::Message request;
    request.type = net::MsgType::kCommitRequest;
    request.xact = static_cast<std::uint64_t>(iter);
    for (int i = 0; i < 12; ++i) {
      request.pages.push_back(i);
      request.versions.push_back(static_cast<std::uint64_t>(iter + i));
      request.data_pages.push_back(100 + i);
      request.data_versions.push_back(static_cast<std::uint64_t>(i));
      request.read_set.push_back(i);
      request.read_versions.push_back(static_cast<std::uint64_t>(i));
      request.updated_set.push_back(100 + i);
    }
    sink += static_cast<std::uint64_t>(net::PacketsFor(request));
    net::Message reply;
    reply.type = net::MsgType::kCommitReply;
    reply.pages = request.updated_set;          // SmallVector copy-assign
    reply.versions = request.data_versions;
    net::Message routed = std::move(request);   // mailbox-style move
    sink += routed.pages.size() + reply.pages.size();
  }
  EXPECT_EQ(AllocationsNow(), before)
      << "inline-capacity message path allocated";
  EXPECT_GT(sink, 0u);
}

TEST(PerfSmokeTest, EvictionVictimListIsAllocationFreeWithinInlineCapacity) {
  // ClientCache::Insert returns its victims in a 4-slot inline list; an
  // insert evicts at most a handful of pages, so handing victims to the
  // protocol (by reference, then filtered into a second list) stays off
  // the heap.
  std::uint64_t sink = 0;
  const std::uint64_t before = AllocationsNow();
  for (int iter = 0; iter < 1000; ++iter) {
    client::ClientCache::EvictedList victims;
    for (int i = 0; i < 4; ++i) {
      client::CachedPage info;
      info.version = static_cast<std::uint64_t>(iter);
      info.dirty = (i % 2) == 0;
      victims.push_back({i, info});
    }
    client::ClientCache::EvictedList rest;
    for (const client::ClientCache::Evicted& victim : victims) {
      if (victim.info.dirty) {
        rest.push_back(victim);
      }
    }
    sink += rest.size();
  }
  EXPECT_EQ(AllocationsNow(), before) << "eviction victim path allocated";
  EXPECT_GT(sink, 0u);
}

TEST(PerfSmokeTest, ClientCacheAttemptEndIsAllocationFree) {
  // Every attempt ends by listing its dirty pages for the commit request
  // and clearing the per-transaction flags, locks and pins; once the cache
  // is populated neither step may touch the heap.
  constexpr int kPages = 64;
  client::ClientCache cache(kPages);
  for (int page = 0; page < kPages; ++page) {
    (void)cache.Insert(page, client::CachedPage{});
  }
  const auto attempt = [&cache](int iter) {
    for (int i = 0; i < 8; ++i) {
      const db::PageId page = (iter * 7 + i * 5) % kPages;
      client::CachedPage* entry = cache.Touch(page);
      entry->dirty = i % 2 == 0;
      entry->lock = client::PageLock::kExclusive;
      entry->checked_this_xact = true;
      cache.Pin(page);
    }
    const client::ClientCache::PageIdList dirty = cache.DirtyPages();
    for (db::PageId page : dirty) {
      cache.Find(page)->dirty = false;
    }
    cache.EndTransaction();
    return dirty.size();
  };
  std::uint64_t sink = attempt(0);  // warmup
  const std::uint64_t before = AllocationsNow();
  for (int iter = 1; iter <= 1000; ++iter) {
    sink += attempt(iter);
  }
  EXPECT_EQ(AllocationsNow(), before)
      << "DirtyPages/EndTransaction allocated";
  EXPECT_GT(sink, 0u);
  cache.AuditEndOfAttempt();
}

TEST(PerfSmokeTest, AttemptBookkeepingIsIndependentOfCacheSize) {
  // Listing an attempt's dirty pages and ending it must cost O(pages the
  // attempt touched), not O(pages cached): at steady state every client
  // cache is full, so a whole-cache walk per attempt makes long runs slow
  // down as they go. 1000 eight-page attempts against a 100k-page cache
  // take a few milliseconds; two whole-cache walks each take seconds.
  constexpr int kPages = 100000;
  client::ClientCache cache(kPages);
  for (int page = 0; page < kPages; ++page) {
    (void)cache.Insert(page, client::CachedPage{});
  }
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int iter = 0; iter < 1000; ++iter) {
    for (int i = 0; i < 8; ++i) {
      const db::PageId page = (iter * 7919 + i * 12289) % kPages;
      cache.Touch(page);
      cache.Pin(page);
      if (i % 2 == 0) {
        cache.MarkDirty(page);
      }
    }
    const client::ClientCache::PageIdList dirty = cache.DirtyPages();
    for (db::PageId page : dirty) {
      cache.Find(page)->dirty = false;
    }
    cache.EndTransaction();
    sink += dirty.size();
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(sink, 4000u);
  EXPECT_LT(seconds, 0.1) << seconds
                          << " s: per-attempt bookkeeping walks the cache";
  cache.AuditEndOfAttempt();
}

// ---------------------------------------------------------------------------
// Real-substrate wire path (the batched-I/O fast path's contract)
// ---------------------------------------------------------------------------

TEST(PerfSmokeTest, WirePathIsAllocationFreeAfterWarmup) {
  // The steady-state real-substrate message path — encode into a reused
  // FrameBuffer, vectored flush, one recv into the connection's reused
  // FrameSplitter, decode into a pooled message handle, the sink takes the
  // handle and releases it — must not touch the heap once every buffer has
  // grown to its working capacity. One lap here is what one calendar step
  // does per connection: queue a batch and flush it, then the loop reads
  // it back and hands every frame to the model.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  substrate::Connection sender{substrate::ScopedFd(fds[0])};
  substrate::Connection receiver{substrate::ScopedFd(fds[1])};

  net::Message msg;
  msg.type = net::MsgType::kReadReply;
  msg.src = net::kServerNode;
  msg.dst = 3;
  msg.xact = 42;
  msg.request_id = 7;
  for (int i = 0; i < 4; ++i) {
    msg.pages.push_back(i);
    msg.versions.push_back(static_cast<std::uint64_t>(100 + i));
  }
  msg.data_pages.push_back(9);  // one zero-run page image per frame
  msg.data_versions.push_back(101);
  constexpr std::uint32_t kPagePayload = 512;
  constexpr int kBatch = 8;

  sim::Simulator sim;
  substrate::RealtimeSubstrate loop(&sim);
  std::uint64_t decoded = 0;
  loop.set_message_sink([&decoded](net::MessagePtr in) {
    EXPECT_EQ(in->xact, 42u);
    ++decoded;
  });  // the handle goes back to the block pool here
  std::atomic<std::uint64_t> frames{0};

  const auto lap = [&] {
    for (int i = 0; i < kBatch; ++i) {
      ASSERT_TRUE(sender.QueueMessage(msg, kPagePayload));
    }
    ASSERT_EQ(sender.Flush(), substrate::FrameBuffer::FlushResult::kDone)
        << "socketpair buffer too small for one batch";
    const std::uint64_t target = decoded + kBatch;
    while (decoded < target) {
      ASSERT_TRUE(receiver.Fill() &&
                  receiver.Dispatch(&loop, kPagePayload, &frames, "test"));
    }
  };

  for (int warm = 0; warm < 4; ++warm) {
    lap();  // grow buffer/splitter capacities, fill the pool's free list
  }
  const std::uint64_t before = AllocationsNow();
  for (int i = 0; i < 64; ++i) {
    lap();
  }
  EXPECT_EQ(AllocationsNow(), before)
      << "steady-state wire path (encode/flush/split/decode) allocated";
  EXPECT_EQ(decoded, 68u * kBatch);
  EXPECT_EQ(frames.load(), 68u * kBatch);
}

/// The sim_hot_checked benchmark's shape, shortened: 50 clients on a hot
/// cell, caches holding the whole database, checker on.
config::ExperimentConfig HotCellConfig(config::Algorithm algorithm,
                                       std::uint64_t target_commits) {
  config::ExperimentConfig cfg = config::BaseConfig();
  cfg.algorithm.algorithm = algorithm;
  cfg.system.num_clients = 50;
  cfg.transaction.inter_xact_loc = 0.75;
  cfg.transaction.prob_write = 0.5;
  cfg.system.client_cache_pages = static_cast<int>(cfg.database.TotalPages());
  cfg.checker.enabled = true;
  cfg.control.target_commits = target_commits;
  return cfg;
}

constexpr config::Algorithm kAlgorithms[] = {
    config::Algorithm::kTwoPhaseLocking, config::Algorithm::kCertification,
    config::Algorithm::kCallbackLocking, config::Algorithm::kNoWaitLocking,
    config::Algorithm::kNoWaitNotify};

TEST(PerfSmokeTest, MessagePathAllocatesNoLargeFrames) {
  // A message is one heap object passed by handle, so no coroutine frame
  // on the message path holds a Message by value and every frame stays
  // within the allocator's small-size cache. A fault-free hot cell (the
  // sim_hot_checked benchmark shape, shortened) must therefore make almost
  // no allocations over 1 KB per commit. The count includes setup and
  // warmup: it measures 0.22 per commit, all of it setup, and was 100-123
  // when frames held messages by value. One large frame per commit would
  // break the ceiling.
  constexpr double kMaxLargeAllocationsPerCommit = 1.0;
  for (const config::Algorithm algorithm : kAlgorithms) {
    const config::ExperimentConfig cfg = HotCellConfig(algorithm, 500);
    const std::uint64_t before = LargeAllocationsNow();
    const auto run = runner::RunExperiment(cfg);
    const std::uint64_t large = LargeAllocationsNow() - before;
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const runner::RunResult& result = run.ValueOrDie();
    ASSERT_GT(result.commits, 0u);
    const double per_commit =
        static_cast<double>(large) / static_cast<double>(result.commits);
    std::printf("%s: %.2f allocations over %zu B per commit\n",
                config::AlgorithmLabel(algorithm, cfg.algorithm.caching)
                    .c_str(),
                per_commit, kLargeAllocationBytes);
    EXPECT_LE(per_commit, kMaxLargeAllocationsPerCommit)
        << config::AlgorithmLabel(algorithm, cfg.algorithm.caching);
  }
}

TEST(PerfSmokeTest, SteadyStateAllocationsPerCommit) {
  // Coroutine frames, messages and hash-set nodes recycle through the
  // per-thread block pool, per-page and per-client tables are indexed by
  // id, and lock queues are vectors, so a commit's steady state makes few
  // heap allocations on the simulation thread: what remains is mostly
  // first-touch growth of those tables. Setup cancels out of the
  // difference between a 1500-commit and a 500-commit run of the hot cell.
  // Measured 9.8-13.7 per commit across the five protocols (seed 3,
  // RelWithDebInfo); 99-145 with hashed tables and std::list LRU nodes,
  // 380-511 before frames and messages were pooled. The ceiling is 1.25x
  // the largest.
  constexpr double kMaxAllocationsPerCommit = 17;
  for (const config::Algorithm algorithm : kAlgorithms) {
    const auto count = [algorithm](std::uint64_t target_commits,
                                   std::uint64_t* commits) {
      config::ExperimentConfig cfg = HotCellConfig(algorithm, target_commits);
      cfg.control.seed = 3;
      const std::uint64_t before = t_allocations;
      const auto run = runner::RunExperiment(cfg);
      const std::uint64_t allocations = t_allocations - before;
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      *commits = run.ok() ? run.ValueOrDie().commits : 0;
      return allocations;
    };
    std::uint64_t short_commits = 0;
    std::uint64_t long_commits = 0;
    const std::uint64_t short_allocations = count(500, &short_commits);
    const std::uint64_t long_allocations = count(1500, &long_commits);
    ASSERT_GT(long_commits, short_commits);
    const double per_commit =
        static_cast<double>(long_allocations - short_allocations) /
        static_cast<double>(long_commits - short_commits);
    const std::string label = config::AlgorithmLabel(
        algorithm, config::BaseConfig().algorithm.caching);
    std::printf("%s: %.1f steady-state allocations per commit\n",
                label.c_str(), per_commit);
    EXPECT_LE(per_commit, kMaxAllocationsPerCommit) << label;
  }
}

TEST(PerfSmokeTest, MessageListSpillFallsBackToHeap) {
  // Past the inline capacity the lists must keep working (and are allowed
  // to allocate) — the capacity is an optimization, not a limit.
  const std::uint64_t before = AllocationsNow();
  net::Message msg;
  for (int i = 0; i < 64; ++i) {
    msg.pages.push_back(i);
  }
  EXPECT_EQ(msg.pages.size(), 64u);
  EXPECT_FALSE(msg.pages.inline_storage());
  EXPECT_GT(AllocationsNow(), before) << "counting operator new is dead";
}

}  // namespace
}  // namespace ccsim::sim
