// Unit tests for the discrete-event simulation kernel: clock/calendar
// semantics, process scheduling, delays, events, mailboxes, and FCFS
// resources.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/task.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ccsim::sim {
namespace {

Process Recorder(Simulator& sim, std::vector<Ticks>& log, Ticks delay,
                 int repeats) {
  for (int i = 0; i < repeats; ++i) {
    co_await sim.Delay(delay);
    log.push_back(sim.Now());
  }
}

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
}

TEST(SimulatorTest, DelayAdvancesClock) {
  Simulator sim;
  std::vector<Ticks> log;
  sim.Spawn(Recorder(sim, log, 10, 3));
  sim.Run(1000);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 10);
  EXPECT_EQ(log[1], 20);
  EXPECT_EQ(log[2], 30);
}

TEST(SimulatorTest, RunStopsAtHorizon) {
  Simulator sim;
  std::vector<Ticks> log;
  sim.Spawn(Recorder(sim, log, 10, 100));
  sim.Run(35);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(sim.Now(), 35);
  sim.Run(1000);
  EXPECT_EQ(log.size(), 100u);
}

TEST(SimulatorTest, EqualTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(5, [&] { order.push_back(1); });
  sim.ScheduleAt(5, [&] { order.push_back(2); });
  sim.ScheduleAt(3, [&] { order.push_back(0); });
  sim.ScheduleAt(5, [&] { order.push_back(3); });
  sim.Run(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTest, ZeroDelayIsACooperativeYield) {
  Simulator sim;
  std::vector<Ticks> log;
  sim.Spawn(Recorder(sim, log, 0, 5));
  sim.Run(100);
  ASSERT_EQ(log.size(), 5u);
  for (Ticks t : log) {
    EXPECT_EQ(t, 0);
  }
}

TEST(SimulatorTest, RequestStopHaltsLoop) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(i, [&] {
      ++fired;
      if (fired == 4) {
        sim.RequestStop();
      }
    });
  }
  sim.Run(100);
  EXPECT_EQ(fired, 4);
}

TEST(SimulatorTest, ShutdownDestroysSuspendedProcesses) {
  Simulator sim;
  std::vector<Ticks> log;
  sim.Spawn(Recorder(sim, log, 10, 1000000));
  sim.Run(100);
  EXPECT_EQ(sim.live_process_count(), 1u);
  sim.Shutdown();
  EXPECT_EQ(sim.live_process_count(), 0u);
}

TEST(SimulatorTest, CompletedProcessUnregistersItself) {
  Simulator sim;
  std::vector<Ticks> log;
  sim.Spawn(Recorder(sim, log, 10, 2));
  sim.Run(1000);
  EXPECT_EQ(sim.live_process_count(), 0u);
}

/// Sleeps until `finish_at`, then ends; counts its frame's destruction,
/// whether the process finished or Shutdown() destroyed it.
Process Sleeper(Simulator& sim, Ticks finish_at, int& destroyed) {
  struct CountOnDestroy {
    int* count;
    ~CountOnDestroy() { ++*count; }
  } guard{&destroyed};
  co_await sim.Delay(finish_at);
}

TEST(SimulatorTest, LiveProcessListUnlinksInAnyOrder) {
  Simulator sim;
  int destroyed = 0;
  constexpr Ticks kNever = 1000000;
  // The live list is newest first: head P4, middle P2, tail P0.
  sim.Spawn(Sleeper(sim, 30, destroyed));      // P0
  sim.Spawn(Sleeper(sim, kNever, destroyed));  // P1
  sim.Spawn(Sleeper(sim, 20, destroyed));      // P2
  sim.Spawn(Sleeper(sim, kNever, destroyed));  // P3
  sim.Spawn(Sleeper(sim, 10, destroyed));      // P4
  EXPECT_EQ(sim.live_process_count(), 5u);
  sim.Run(15);  // P4 finishes: head unlink
  EXPECT_EQ(sim.live_process_count(), 4u);
  sim.Run(25);  // P2 finishes: middle unlink
  EXPECT_EQ(sim.live_process_count(), 3u);
  sim.Run(35);  // P0 finishes: tail unlink
  EXPECT_EQ(sim.live_process_count(), 2u);
  EXPECT_EQ(destroyed, 3);
  sim.Shutdown();  // destroys the suspended P1 and P3
  EXPECT_EQ(sim.live_process_count(), 0u);
  EXPECT_EQ(destroyed, 5);
  // The emptied list takes new processes.
  sim.Spawn(Sleeper(sim, 5, destroyed));
  EXPECT_EQ(sim.live_process_count(), 1u);
  sim.Run(sim.Now() + 10);
  EXPECT_EQ(sim.live_process_count(), 0u);
  EXPECT_EQ(destroyed, 6);
}

TEST(SimulatorTest, LargeClosureTakesHeapFallbackAndFires) {
  Simulator sim;
  // 48-byte capture: too big for the inline payload buffer.
  std::int64_t a = 1, b = 2, c = 3, d = 4, e = 5;
  std::int64_t sum = 0;
  sim.ScheduleAt(7, [a, b, c, d, e, &sum] { sum = a + b + c + d + e; });
  sim.Run(10);
  EXPECT_EQ(sum, 15);
  EXPECT_EQ(sim.Now(), 7);
}

TEST(SimulatorTest, NonTriviallyCopyableClosureFires) {
  Simulator sim;
  std::string payload = "hello from the heap fallback";
  std::string received;
  sim.ScheduleAt(3, [payload, &received] { received = payload; });
  sim.Run(10);
  EXPECT_EQ(received, payload);
}

TEST(SimulatorTest, ShutdownFreesPendingHeapFallbackClosures) {
  // A shared_ptr capture forces the heap fallback; Shutdown must free the
  // never-fired closure (dropping the reference) without running it.
  auto token = std::make_shared<int>(7);
  bool fired = false;
  {
    Simulator sim;
    sim.ScheduleAt(50, [token, &fired] { fired = true; });
    sim.Run(10);  // horizon before the event: it stays pending
    EXPECT_EQ(token.use_count(), 2);
    sim.Shutdown();
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RequestStopMidEqualTimeBatchThenResume) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    sim.ScheduleAt(5, [&, i] {
      order.push_back(i);
      if (i == 1) {
        sim.RequestStop();
      }
    });
  }
  sim.Run(100);
  // The stop takes effect after the current event; the rest of the
  // equal-time batch stays pending.
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.Now(), 5);
  EXPECT_EQ(sim.calendar_size(), 4u);
  // A later Run picks the batch back up in the original FIFO order.
  sim.Run(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

Process PushAfterDelay(Simulator& sim, std::vector<int>& order, Ticks delay,
                       int id) {
  co_await sim.Delay(delay);
  order.push_back(id);
}

TEST(SimulatorTest, EqualTimeFifoAcrossEntryKindsAndTimes) {
  // Interleaves closure entries and coroutine resumes across two fire
  // times, some pushed before the run and some during it. The global
  // order must still be (time, schedule order) regardless of entry kind.
  Simulator sim;
  std::vector<int> order;
  std::vector<int> expect_t10;
  std::vector<int> expect_t14;
  for (int i = 0; i < 16; ++i) {
    const Ticks when = (i % 2 == 0) ? 10 : 14;
    (when == 10 ? expect_t10 : expect_t14).push_back(i);
    if (i % 4 < 2) {
      sim.ScheduleAt(when, [&order, i] { order.push_back(i); });
    } else {
      // The process starts at time 0, so its resume entry is scheduled
      // during the run; spawn order still decides arrival order.
      sim.Spawn(PushAfterDelay(sim, order, when, i));
    }
  }
  sim.Run(100);
  // Closure entries are pushed at setup time, process resumes at time 0:
  // within each fire time, all setup pushes precede all time-0 pushes,
  // each group in schedule order.
  std::vector<int> expected;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i : expect_t10) {
      if ((pass == 0) == (i % 4 < 2)) {
        expected.push_back(i);
      }
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (int i : expect_t14) {
      if ((pass == 0) == (i % 4 < 2)) {
        expected.push_back(i);
      }
    }
  }
  EXPECT_EQ(order, expected);
}

// --- Calendar model: random schedules against a reference order. ---

/// Pushes random calendar entries and checks each firing against a
/// reference: the pending (when, push sequence) pairs, sorted. Only the
/// least pair may fire next, and only at its own time.
struct CalendarModel {
  static constexpr std::uint64_t kPushBudget = 3000;

  explicit CalendarModel(std::uint64_t seed) : rng(seed, 11) {}

  /// Records a push due at `when` and returns its sequence number.
  std::uint64_t Expect(Ticks when) {
    pending.emplace(when, next_seq);
    return next_seq++;
  }

  /// Every entry calls this when it fires.
  void Fired(std::uint64_t seq) {
    const std::pair<Ticks, std::uint64_t> got{sim.Now(), seq};
    if (pending.empty() || *pending.begin() != got) {
      if (out_of_order++ == 0) {
        first_error = "fired (" + std::to_string(got.first) + ", " +
                      std::to_string(got.second) + ")";
      }
    }
    pending.erase(got);
    ++fired;
    if (stops_allowed && rng.Bernoulli(0.03)) {
      sim.RequestStop();
    }
    const double u = rng.NextDouble();
    for (int i = u < 0.45 ? 0 : (u < 0.8 ? 1 : 2); i > 0; --i) {
      PushRandom();
    }
  }

  /// Mostly `Now()` and nearby shared ticks, sometimes further out.
  Ticks RandomDelay() {
    const double u = rng.NextDouble();
    if (u < 0.4) {
      return 0;
    }
    return u < 0.8 ? rng.UniformInt(1, 3) : rng.UniformInt(4, 40);
  }

  void PushRandom();

  Simulator sim;
  Pcg32 rng;
  std::set<std::pair<Ticks, std::uint64_t>> pending;
  std::uint64_t next_seq = 0;
  std::uint64_t fired = 0;
  std::uint64_t out_of_order = 0;
  std::string first_error;
  std::uint64_t heap_fallbacks = 0;
  std::uint64_t spawns = 0;
  bool stops_allowed = true;
};

/// Resumes the awaiting process at absolute time `when`.
struct ResumeAt {
  Simulator* sim;
  Ticks when;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) {
    sim->ScheduleResumeAt(when, handle);
  }
  void await_resume() const noexcept {}
};

/// A process whose first step and each resume are model entries; it
/// alternates `Delay` and `ScheduleResumeAt`.
Process Stepper(CalendarModel& model, std::uint64_t seq, int steps) {
  model.Fired(seq);
  for (int i = 0; i < steps; ++i) {
    const Ticks delay = model.RandomDelay();
    seq = model.Expect(model.sim.Now() + delay);
    if (i % 2 == 0) {
      co_await model.sim.Delay(delay);
    } else {
      co_await ResumeAt{&model.sim, model.sim.Now() + delay};
    }
    model.Fired(seq);
  }
}

void CalendarModel::PushRandom() {
  if (next_seq >= kPushBudget) {
    return;
  }
  const Ticks when = sim.Now() + RandomDelay();
  switch (rng.UniformInt(0, 2)) {
    case 0: {
      const std::uint64_t seq = Expect(when);
      sim.ScheduleAt(when, [this, seq] { Fired(seq); });
      break;
    }
    case 1: {
      // A shared_ptr capture is not trivially copyable: heap fallback.
      auto seq = std::make_shared<std::uint64_t>(Expect(when));
      sim.ScheduleAt(when, [this, seq] { Fired(*seq); });
      ++heap_fallbacks;
      break;
    }
    default: {
      const std::uint64_t seq = Expect(sim.Now());
      sim.Spawn(Stepper(*this, seq, static_cast<int>(rng.UniformInt(0, 3))));
      ++spawns;
      break;
    }
  }
}

TEST(CalendarModelTest, FiresInWhenThenPushOrder) {
  std::uint64_t stops_mid_batch = 0;
  std::uint64_t advances = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CalendarModel model(seed);
    Simulator& sim = model.sim;
    for (int i = 0; i < 8; ++i) {
      model.PushRandom();  // before the first Run, at 0 and later
    }
    for (int round = 0; round < 300; ++round) {
      if (model.rng.Bernoulli(0.25)) {
        // AdvanceTo may only skip times that hold no entry.
        const Ticks next = sim.PeekNextTime();
        if (next == -1 || next > sim.Now()) {
          const Ticks to = next == -1 ? sim.Now() + model.rng.UniformInt(0, 9)
                                      : model.rng.UniformInt(sim.Now(), next - 1);
          sim.AdvanceTo(to);
          EXPECT_EQ(sim.Now(), to);
          ++advances;
        }
        model.PushRandom();  // pushes from outside Run
      } else {
        const Ticks until = sim.Now() + model.rng.UniformInt(0, 25);
        sim.Run(until);
        if (sim.stop_requested()) {
          const auto& pending = model.pending;
          if (!pending.empty() && pending.begin()->first == sim.Now()) {
            ++stops_mid_batch;
          }
          if (model.rng.Bernoulli(0.5)) {
            model.PushRandom();  // joins the interrupted batch's time
          }
        } else {
          EXPECT_TRUE(model.pending.empty() ||
                      model.pending.begin()->first > until);
          if (!model.pending.empty()) {
            EXPECT_EQ(sim.Now(), until);
          }
        }
      }
      EXPECT_EQ(sim.calendar_size(), model.pending.size());
      EXPECT_EQ(sim.PeekNextTime(), model.pending.empty()
                                        ? Ticks{-1}
                                        : model.pending.begin()->first);
    }
    model.stops_allowed = false;
    sim.Run(std::numeric_limits<Ticks>::max());
    EXPECT_TRUE(model.pending.empty());
    EXPECT_EQ(sim.calendar_size(), 0u);
    EXPECT_EQ(sim.live_process_count(), 0u);
    EXPECT_EQ(model.fired, model.next_seq);
    EXPECT_EQ(model.out_of_order, 0u) << "first: " << model.first_error;
    EXPECT_GT(model.heap_fallbacks, 0u);
    EXPECT_GT(model.spawns, 0u);
  }
  // The mixes reached the cases the lane/heap split has to get right.
  EXPECT_GT(stops_mid_batch, 10u);
  EXPECT_GT(advances, 100u);
}

Process Waiter(Simulator& sim, Event& event, std::vector<Ticks>& wakeups) {
  (void)sim;
  co_await event.Wait();
  wakeups.push_back(sim.Now());
}

TEST(EventTest, SignalWakesAllCurrentWaiters) {
  Simulator sim;
  Event event(&sim);
  std::vector<Ticks> wakeups;
  sim.Spawn(Waiter(sim, event, wakeups));
  sim.Spawn(Waiter(sim, event, wakeups));
  sim.ScheduleAt(50, [&] { event.Signal(); });
  sim.Run(100);
  ASSERT_EQ(wakeups.size(), 2u);
  EXPECT_EQ(wakeups[0], 50);
  EXPECT_EQ(wakeups[1], 50);
}

TEST(EventTest, LateWaiterWaitsForNextSignal) {
  Simulator sim;
  Event event(&sim);
  std::vector<Ticks> wakeups;
  sim.ScheduleAt(10, [&] { event.Signal(); });
  sim.ScheduleAt(20, [&] { sim.Spawn(Waiter(sim, event, wakeups)); });
  sim.Run(100);
  EXPECT_TRUE(wakeups.empty());
  event.Signal();
  sim.Run(200);
  ASSERT_EQ(wakeups.size(), 1u);
}

Process RepeatWaiter(Simulator& sim, Event& event, std::vector<Ticks>& wakeups,
                     int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await event.Wait();
    wakeups.push_back(sim.Now());
  }
}

TEST(EventTest, RewaitDuringBroadcastJoinsNextRound) {
  // A waiter that re-waits immediately after waking must not be re-woken
  // by the same Signal (the scratch-buffer swap empties the waiter list
  // before any resume fires).
  Simulator sim;
  Event event(&sim);
  std::vector<Ticks> wakeups;
  sim.Spawn(RepeatWaiter(sim, event, wakeups, 2));
  sim.ScheduleAt(10, [&] { event.Signal(); });
  sim.ScheduleAt(20, [&] { event.Signal(); });
  sim.Run(100);
  EXPECT_EQ(wakeups, (std::vector<Ticks>{10, 20}));
  EXPECT_EQ(event.waiter_count(), 0u);
}

Process OneShotConsumer(Simulator& sim, OneShot<int>& slot, int& out) {
  (void)sim;
  out = co_await slot.Wait();
}

TEST(OneShotTest, WaitThenSet) {
  Simulator sim;
  OneShot<int> slot(&sim);
  int out = 0;
  sim.Spawn(OneShotConsumer(sim, slot, out));
  sim.ScheduleAt(30, [&] { slot.Set(42); });
  sim.Run(100);
  EXPECT_EQ(out, 42);
}

TEST(OneShotTest, SetThenWaitCompletesImmediately) {
  Simulator sim;
  OneShot<int> slot(&sim);
  slot.Set(7);
  int out = 0;
  sim.Spawn(OneShotConsumer(sim, slot, out));
  sim.Run(100);
  EXPECT_EQ(out, 7);
}

Process MailboxConsumer(Simulator& sim, Mailbox<std::string>& mailbox,
                        std::vector<std::string>& received, int count) {
  (void)sim;
  for (int i = 0; i < count; ++i) {
    std::string item = co_await mailbox.Receive();
    received.push_back(item);
  }
}

TEST(MailboxTest, FifoDelivery) {
  Simulator sim;
  Mailbox<std::string> mailbox(&sim);
  std::vector<std::string> received;
  sim.Spawn(MailboxConsumer(sim, mailbox, received, 3));
  sim.ScheduleAt(10, [&] { mailbox.Push("a"); });
  sim.ScheduleAt(20, [&] {
    mailbox.Push("b");
    mailbox.Push("c");
  });
  sim.Run(100);
  EXPECT_EQ(received, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(MailboxTest, ReceiveDoesNotBlockWhenItemsQueued) {
  Simulator sim;
  Mailbox<std::string> mailbox(&sim);
  mailbox.Push("x");
  std::vector<std::string> received;
  sim.Spawn(MailboxConsumer(sim, mailbox, received, 1));
  sim.Run(0);
  EXPECT_EQ(received, (std::vector<std::string>{"x"}));
}

Process DelayedConsumer(Simulator& sim, Mailbox<std::string>& mailbox,
                        std::vector<std::string>& received, Ticks start,
                        int count) {
  co_await sim.Delay(start);
  for (int i = 0; i < count; ++i) {
    std::string item = co_await mailbox.Receive();
    received.push_back(item);
  }
}

TEST(MailboxTest, RivalConsumerDoesNotCrashParkedReceiver) {
  // Hazard: a Push wakes parked receiver A, but before A's wakeup event
  // fires, receiver B grabs the item via the non-blocking fast path. A's
  // wakeup must re-park A (not crash on an empty queue), and A must still
  // be first in line for the next item.
  Simulator sim;
  Mailbox<std::string> mailbox(&sim);
  std::vector<std::string> a_got;
  std::vector<std::string> b_got;
  // A parks at t=0. The Push at t=10 schedules A's wakeup; B's Delay(10)
  // resume was scheduled at t=0, i.e. after the setup-time Push closure,
  // so B's fast-path Receive runs between the Push and A's wakeup.
  sim.Spawn(DelayedConsumer(sim, mailbox, a_got, 0, 1));
  sim.ScheduleAt(10, [&] { mailbox.Push("first"); });
  sim.Spawn(DelayedConsumer(sim, mailbox, b_got, 10, 1));
  sim.Run(50);
  EXPECT_TRUE(a_got.empty());
  EXPECT_EQ(b_got, (std::vector<std::string>{"first"}));
  // A was re-parked at the front of the line: the next item is A's.
  mailbox.Push("second");
  sim.Run(100);
  EXPECT_EQ(a_got, (std::vector<std::string>{"second"}));
}

Process UserOfResource(Simulator& sim, Resource& resource, Ticks start,
                       Ticks service, std::vector<std::pair<int, Ticks>>& log,
                       int id) {
  co_await sim.Delay(start);
  co_await resource.Use(service);
  log.push_back({id, sim.Now()});
}

TEST(ResourceTest, SingleServerSerializesFcfs) {
  Simulator sim;
  Resource resource(&sim, "cpu", 1);
  std::vector<std::pair<int, Ticks>> log;
  // Three jobs arrive at t=0,1,2, each needing 10 ticks.
  sim.Spawn(UserOfResource(sim, resource, 0, 10, log, 0));
  sim.Spawn(UserOfResource(sim, resource, 1, 10, log, 1));
  sim.Spawn(UserOfResource(sim, resource, 2, 10, log, 2));
  sim.Run(1000);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<int, Ticks>{0, 10}));
  EXPECT_EQ(log[1], (std::pair<int, Ticks>{1, 20}));
  EXPECT_EQ(log[2], (std::pair<int, Ticks>{2, 30}));
}

TEST(ResourceTest, TwoServersRunInParallel) {
  Simulator sim;
  Resource resource(&sim, "cpu", 2);
  std::vector<std::pair<int, Ticks>> log;
  sim.Spawn(UserOfResource(sim, resource, 0, 10, log, 0));
  sim.Spawn(UserOfResource(sim, resource, 0, 10, log, 1));
  sim.Spawn(UserOfResource(sim, resource, 0, 10, log, 2));
  sim.Run(1000);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].second, 10);
  EXPECT_EQ(log[1].second, 10);
  EXPECT_EQ(log[2].second, 20);
}

TEST(ResourceTest, UtilizationAccounting) {
  Simulator sim;
  Resource resource(&sim, "disk", 1);
  std::vector<std::pair<int, Ticks>> log;
  // One job occupying 40 of the first 100 ticks.
  sim.Spawn(UserOfResource(sim, resource, 0, 40, log, 0));
  sim.Run(100);
  EXPECT_NEAR(resource.Utilization(100), 0.4, 1e-9);
  EXPECT_EQ(resource.completions(), 1u);
}

TEST(ResourceTest, WaitTimeTally) {
  Simulator sim;
  Resource resource(&sim, "disk", 1);
  std::vector<std::pair<int, Ticks>> log;
  sim.Spawn(UserOfResource(sim, resource, 0, 100, log, 0));
  sim.Spawn(UserOfResource(sim, resource, 0, 100, log, 1));
  sim.Run(10000);
  // First waits 0, second waits 100 ticks.
  EXPECT_EQ(resource.wait_times().count(), 2u);
  EXPECT_NEAR(resource.wait_times().max(), 100e-6, 1e-12);
}

Process AcquireHolder(Simulator& sim, Resource& resource, Ticks hold,
                      std::vector<Ticks>& log) {
  co_await resource.Acquire();
  co_await sim.Delay(hold);  // hold the server across an unrelated await
  resource.Release();
  log.push_back(sim.Now());
}

TEST(ResourceTest, AcquireHoldsAcrossAwaits) {
  Simulator sim;
  Resource resource(&sim, "net", 1);
  std::vector<Ticks> log;
  sim.Spawn(AcquireHolder(sim, resource, 50, log));
  sim.Spawn(AcquireHolder(sim, resource, 50, log));
  sim.Run(1000);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 50);
  EXPECT_EQ(log[1], 100);
}

Task<int> InnerCompute(Simulator& sim, Resource& resource) {
  co_await resource.Use(10);
  co_await sim.Delay(5);
  co_return 21;
}

Task<int> MiddleCompute(Simulator& sim, Resource& resource) {
  const int a = co_await InnerCompute(sim, resource);
  const int b = co_await InnerCompute(sim, resource);
  co_return a + b;
}

Process TaskDriver(Simulator& sim, Resource& resource, int& out,
                   Ticks& done_at) {
  out = co_await MiddleCompute(sim, resource);
  done_at = sim.Now();
}

TEST(TaskTest, NestedTasksComposeAndReturnValues) {
  Simulator sim;
  Resource resource(&sim, "cpu", 1);
  int out = 0;
  Ticks done_at = 0;
  sim.Spawn(TaskDriver(sim, resource, out, done_at));
  sim.Run(1000);
  EXPECT_EQ(out, 42);
  EXPECT_EQ(done_at, 30);  // two sequential (10 use + 5 delay) legs
  EXPECT_EQ(sim.live_process_count(), 0u);
}

Task<void> VoidLeg(Simulator& sim, int& counter) {
  co_await sim.Delay(1);
  ++counter;
}

Process VoidDriver(Simulator& sim, int& counter) {
  co_await VoidLeg(sim, counter);
  co_await VoidLeg(sim, counter);
}

TEST(TaskTest, VoidTasksRun) {
  Simulator sim;
  int counter = 0;
  sim.Spawn(VoidDriver(sim, counter));
  sim.Run(1000);
  EXPECT_EQ(counter, 2);
}

TEST(TaskTest, ShutdownReclaimsSuspendedTaskChain) {
  Simulator sim;
  Resource resource(&sim, "cpu", 1);
  int out = 0;
  Ticks done_at = 0;
  sim.Spawn(TaskDriver(sim, resource, out, done_at));
  sim.Run(12);  // suspended inside the second InnerCompute
  EXPECT_EQ(out, 0);
  sim.Shutdown();  // must not leak or crash (ASAN-checked in CI builds)
  EXPECT_EQ(sim.live_process_count(), 0u);
}

TEST(TimeConversionTest, RoundTrips) {
  EXPECT_EQ(SecondsToTicks(1.0), 1000000);
  EXPECT_EQ(MillisToTicks(2.0), 2000);
  EXPECT_DOUBLE_EQ(TicksToSeconds(500000), 0.5);
  // 15,000 instructions at 1 MIPS = 15 ms.
  EXPECT_EQ(CpuDemand(15000, 1.0), 15000);
  // 5,000 instructions at 2 MIPS = 2.5 ms.
  EXPECT_EQ(CpuDemand(5000, 2.0), 2500);
  EXPECT_EQ(CpuDemand(0, 2.0), 0);
}

}  // namespace
}  // namespace ccsim::sim
