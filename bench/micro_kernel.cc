// Kernel hot-path micro-benchmarks. These isolate the event-calendar cost
// that dominates sweep wall-clock: coroutine resume scheduling (the Delay /
// ScheduleResumeAt path), inline-closure timers, FCFS resource handoffs,
// and Event broadcast. It is a microbenchmark, not a gate: end-to-end
// numbers, compared per host, come from the repository benchmark
// (`python3 ccbench/run.py`).
//
// The workloads are sized to keep a realistically populated calendar: a
// paper-scale sweep run holds tens-to-hundreds of pending events, so the
// heap-depth cost (entry moves during sift) matters as much as the
// per-entry construction cost.

#include <benchmark/benchmark.h>

#include "config/params.h"
#include "runner/experiment.h"
#include "sim/event.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace ccsim {
namespace {

sim::Process DelayTicker(sim::Simulator& sim, int steps) {
  for (int i = 0; i < steps; ++i) {
    co_await sim.Delay(1);
  }
}

/// The dominant kernel path: every co_await sim.Delay() is one calendar
/// push (ScheduleResumeAt) plus one pop-and-resume. `procs` pending
/// processes keep the calendar `procs` entries deep.
void BM_DelayResume(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int steps = 65536 / procs;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int p = 0; p < procs; ++p) {
      sim.Spawn(DelayTicker(sim, steps));
    }
    sim.Run(1 << 22);
  }
  state.SetItemsProcessed(state.iterations() * procs * steps);
}
BENCHMARK(BM_DelayResume)->Arg(1)->Arg(64)->Arg(1024);

/// Self-rescheduling inline-closure timer: the non-coroutine calendar
/// entry case (16-byte capture, must stay within the inline buffer).
void BM_InlineClosureTimer(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    // 64 concurrent self-rescheduling timers.
    struct Timer {
      sim::Simulator* sim;
      std::uint64_t* fired;
      void Fire() {
        ++*fired;
        if (*fired < 65536) {
          sim->ScheduleAfter(1, [this] { Fire(); });
        }
      }
    };
    std::vector<Timer> timers(64, Timer{&sim, &fired});
    for (Timer& t : timers) {
      sim.ScheduleAfter(1, [&t] { t.Fire(); });
    }
    sim.Run(1 << 22);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_InlineClosureTimer);

sim::Process ResourceUser(sim::Resource& resource, int uses) {
  for (int i = 0; i < uses; ++i) {
    co_await resource.Use(3);
  }
}

/// FCFS facility contention: each Use() is an inline-closure completion
/// event plus a resume, with queue bookkeeping.
void BM_ResourceFcfs(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Resource cpu(&sim, "cpu", 2);
    for (int p = 0; p < 8; ++p) {
      sim.Spawn(ResourceUser(cpu, 2048));
    }
    sim.Run(1 << 24);
  }
  state.SetItemsProcessed(state.iterations() * 8 * 2048);
}
BENCHMARK(BM_ResourceFcfs);

sim::Process SignalWaiter(sim::Event& event, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await event.Wait();
  }
}

sim::Process Signaler(sim::Simulator& sim, sim::Event& event, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await sim.Delay(1);
    event.Signal();
  }
}

/// Broadcast wakeup: 32 waiters re-arming every round. Exercises the
/// Signal scratch buffer (allocation-free steady state) and batch resumes.
void BM_EventBroadcast(benchmark::State& state) {
  const int kRounds = 2048;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Event event(&sim);
    for (int w = 0; w < 32; ++w) {
      sim.Spawn(SignalWaiter(event, kRounds));
    }
    sim.Spawn(Signaler(sim, event, kRounds));
    sim.Run(1 << 22);
    sim.Shutdown();
  }
  state.SetItemsProcessed(state.iterations() * 32 * kRounds);
}
BENCHMARK(BM_EventBroadcast);

/// Full-experiment guard pair for the consistency oracle's pay-for-use
/// contract: the same contended run with checker.enabled off and on. Items
/// are committed transactions, so items_per_second is directly comparable
/// between the two: the disabled checker must cost nothing, and the On
/// overhead is the price of checking.
runner::RunResult RunGuardExperiment(bool checker_enabled) {
  config::ExperimentConfig cfg = config::BaseConfig();
  cfg.system.num_clients = 8;
  cfg.transaction.prob_write = 0.2;
  cfg.transaction.inter_xact_loc = 0.25;
  cfg.control.seed = 7;
  cfg.control.warmup_seconds = 5;
  cfg.control.target_commits = 500;
  cfg.control.max_measure_seconds = 300;
  cfg.checker.enabled = checker_enabled;
  return runner::RunExperiment(cfg).ValueOrDie();
}

void BM_ExperimentCheckerOff(benchmark::State& state) {
  std::uint64_t commits = 0;
  for (auto _ : state) {
    commits += RunGuardExperiment(false).commits;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(commits));
}
BENCHMARK(BM_ExperimentCheckerOff);

void BM_ExperimentCheckerOn(benchmark::State& state) {
  std::uint64_t commits = 0;
  for (auto _ : state) {
    commits += RunGuardExperiment(true).commits;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(commits));
}
BENCHMARK(BM_ExperimentCheckerOn);

}  // namespace
}  // namespace ccsim

BENCHMARK_MAIN();
