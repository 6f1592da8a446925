// google-benchmark micro-benchmarks for the simulation substrates: event
// calendar throughput, coroutine process switching, FCFS resources, the
// lock manager, the LRU table, and the RNG. These gate the wall-clock cost
// of the paper-scale experiments (hundreds of runs per figure).

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <vector>

#include "lock/lock_manager.h"
#include "net/message.h"
#include "sim/event.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "substrate/wire.h"
#include "util/lru.h"

namespace ccsim {
namespace {

void BM_CalendarScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      sim.ScheduleAt(i, [&sink] { ++sink; });
    }
    sim.Run(1 << 20);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CalendarScheduleRun);

sim::Process Ticker(sim::Simulator& sim, int steps) {
  for (int i = 0; i < steps; ++i) {
    co_await sim.Delay(1);
  }
}

void BM_ProcessContextSwitch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim.Spawn(Ticker(sim, 4096));
    sim.Run(1 << 20);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ProcessContextSwitch);

sim::Process ResourceUser(sim::Simulator& sim, sim::Resource& resource,
                          int uses) {
  (void)sim;
  for (int i = 0; i < uses; ++i) {
    co_await resource.Use(3);
  }
}

void BM_ResourceFcfsContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Resource cpu(&sim, "cpu", 2);
    for (int p = 0; p < 8; ++p) {
      sim.Spawn(ResourceUser(sim, cpu, 512));
    }
    sim.Run(1 << 24);
  }
  state.SetItemsProcessed(state.iterations() * 8 * 512);
}
BENCHMARK(BM_ResourceFcfsContention);

sim::Process LockerProcess(sim::Simulator& sim, lock::LockManager& locks,
                           lock::OwnerId owner, int rounds) {
  sim::Pcg32 rng(owner, owner);
  for (int i = 0; i < rounds; ++i) {
    const db::PageId page = static_cast<db::PageId>(rng.UniformInt(0, 255));
    const lock::LockMode mode = rng.Bernoulli(0.2)
                                    ? lock::LockMode::kExclusive
                                    : lock::LockMode::kShared;
    const lock::LockOutcome outcome = co_await locks.Acquire(owner, page, mode);
    if (outcome == lock::LockOutcome::kGranted) {
      co_await sim.Delay(1);
      locks.ReleaseAll(owner);
    }
  }
}

void BM_LockManagerContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    lock::LockManager locks(&sim);
    for (lock::OwnerId owner = 1; owner <= 16; ++owner) {
      sim.Spawn(LockerProcess(sim, locks, owner, 256));
    }
    sim.Run(1 << 24);
  }
  state.SetItemsProcessed(state.iterations() * 16 * 256);
}
BENCHMARK(BM_LockManagerContention);

void BM_LruTableChurn(benchmark::State& state) {
  // A 100-page cache over a 2000-page database (Table 5's sizes): a miss
  // evicts the LRU page and caches the requested one.
  constexpr int kPages = 2000;
  LruTable<int, int> lru;
  sim::Pcg32 rng(1, 2);
  for (int i = 0; i < 100; ++i) {
    lru.Insert(i, i);
  }
  for (auto _ : state) {
    const int key = static_cast<int>(rng.UniformInt(0, kPages - 1));
    if (lru.Touch(key) == nullptr) {
      const auto* victim = lru.VictimCandidate();
      if (victim != nullptr) {
        lru.Erase(victim->key);
      }
      lru.Insert(key, 0);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruTableChurn);

void BM_Pcg32Exponential(benchmark::State& state) {
  sim::Pcg32 rng(7, 9);
  double sink = 0;
  for (auto _ : state) {
    sink += rng.Exponential(2.0);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Pcg32Exponential);

/// A typical protocol message: a lock-reply-sized header plus short page
/// and version lists (no page image).
net::Message TypicalControlMessage() {
  net::Message msg;
  msg.type = net::MsgType::kReadReply;
  msg.src = net::kServerNode;
  msg.dst = 7;
  msg.xact = 1234567;
  msg.request_id = 89;
  msg.seq = 4242;
  for (int i = 0; i < 4; ++i) {
    msg.pages.push_back(100 + i);
    msg.versions.push_back(1000 + i);
  }
  return msg;
}

/// The wire codec round trip on the real-substrate hot path: encode into a
/// reused FrameBuffer, split, and decode into a reused Message. Steady
/// state must be allocation-free (see perf_smoke_test), so items/s here is
/// pure compute.
void BM_WireEncodeDecode(benchmark::State& state) {
  const net::Message msg = TypicalControlMessage();
  std::vector<std::uint8_t> frame;
  substrate::EncodeMessage(msg, 0, &frame);
  net::Message decoded;
  std::string error;
  for (auto _ : state) {
    frame.clear();
    substrate::EncodeMessage(msg, 0, &frame);
    const bool ok = substrate::DecodeMessage(frame.data() + 4,
                                             frame.size() - 4, 0, &decoded,
                                             &error);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(decoded.seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeDecode);

/// Batched outbound encode: N messages appended into one FrameBuffer (the
/// per-flush cost is one sendmsg, excluded here).
void BM_FrameBufferAppend(benchmark::State& state) {
  const net::Message msg = TypicalControlMessage();
  substrate::FrameBuffer buffer;
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    buffer.Clear();
    for (int i = 0; i < batch; ++i) {
      buffer.AppendMessage(msg, 0);
    }
    benchmark::DoNotOptimize(buffer.frames_queued());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_FrameBufferAppend)->Arg(16)->Arg(256);

/// Batched inbound split+decode: a chunk of back-to-back frames (as one
/// recv would deliver them) peeled and decoded message by message, each
/// into a fresh pooled handle, as the substrate loop hands them to a
/// mailbox.
void BM_FrameSplitterDecode(benchmark::State& state) {
  const net::Message msg = TypicalControlMessage();
  std::vector<std::uint8_t> chunk;
  const int batch = static_cast<int>(state.range(0));
  for (int i = 0; i < batch; ++i) {
    substrate::EncodeMessage(msg, 0, &chunk);
  }
  substrate::FrameSplitter splitter;
  std::string error;
  for (auto _ : state) {
    std::uint8_t* dst = splitter.WritableData(chunk.size());
    std::memcpy(dst, chunk.data(), chunk.size());
    splitter.CommitBytes(chunk.size());
    const std::uint8_t* body = nullptr;
    std::uint32_t len = 0;
    while (splitter.NextFrame(&body, &len) ==
           substrate::FrameSplitter::Next::kFrame) {
      auto decoded = std::make_unique<net::Message>();
      substrate::DecodeMessage(body, len, 0, decoded.get(), &error);
      benchmark::DoNotOptimize(decoded->seq);
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_FrameSplitterDecode)->Arg(16)->Arg(256);

}  // namespace
}  // namespace ccsim

BENCHMARK_MAIN();
