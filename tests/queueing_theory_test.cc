// Validation of the simulation substrate against closed-form queueing
// theory: an M/M/1 station built from kernel primitives must reproduce
// the analytic waiting time W = rho / (mu - lambda) and utilization rho,
// and an M/M/c station the Erlang-C prediction. This exercises the event
// calendar, FCFS resources, the exponential variate generator, and the
// statistics accumulators end to end — the same stack every experiment
// rests on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "sim/process.h"
#include "sim/random.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace ccsim::sim {
namespace {

// Open arrival process: exponential interarrivals, each customer holds the
// station for an exponential service time; sojourn times are tallied.
Process ArrivalSource(Simulator& sim, Resource& station, Pcg32& rng,
                      Ticks mean_interarrival, Ticks mean_service,
                      Tally& sojourn_s, std::uint64_t& spawned);

Process Customer(Simulator& sim, Resource& station, Ticks service,
                 Tally& sojourn_s) {
  const Ticks arrived = sim.Now();
  co_await station.Use(service);
  sojourn_s.Add(TicksToSeconds(sim.Now() - arrived));
}

Process ArrivalSource(Simulator& sim, Resource& station, Pcg32& rng,
                      Ticks mean_interarrival, Ticks mean_service,
                      Tally& sojourn_s, std::uint64_t& spawned) {
  while (true) {
    co_await sim.Delay(rng.ExponentialTicks(mean_interarrival));
    sim.Spawn(Customer(sim, station, rng.ExponentialTicks(mean_service),
                       sojourn_s));
    ++spawned;
  }
}

struct MmcCase {
  int servers;
  double rho;  // offered utilization per server
};

// Static storage, so the padding between the members is zero: gtest prints
// the raw bytes of each case into the discovered test name, and cases built
// as temporaries would carry whatever was on the stack.
constexpr MmcCase kLoadLevels[] = {{1, 0.3}, {1, 0.5}, {1, 0.7}, {1, 0.8},
                                   {2, 0.5}, {2, 0.7}, {4, 0.7}};

class MmcQueueTest : public ::testing::TestWithParam<MmcCase> {};

TEST_P(MmcQueueTest, SojournMatchesTheory) {
  const MmcCase param = GetParam();
  const Ticks mean_service = 10'000;  // 10 ms
  const double lambda_total =
      param.rho * param.servers / TicksToSeconds(mean_service);
  const Ticks mean_interarrival =
      static_cast<Ticks>(1.0 / lambda_total * kTicksPerSecond);

  Simulator sim;
  Resource station(&sim, "station", param.servers);
  Pcg32 rng(2024, 77);
  Tally sojourn_s;
  std::uint64_t spawned = 0;
  sim.Spawn(ArrivalSource(sim, station, rng, mean_interarrival, mean_service,
                          sojourn_s, spawned));
  // Warm up, then measure a long window.
  sim.Run(SecondsToTicks(50));
  sojourn_s.Reset();
  station.ResetStats(sim.Now());
  const Ticks start = sim.Now();
  sim.Run(start + SecondsToTicks(2000));

  // Utilization converges to rho.
  EXPECT_NEAR(station.Utilization(sim.Now()), param.rho, 0.02);

  // Erlang-C sojourn time: W = C / (c*mu - lambda) + 1/mu.
  const double mu = 1.0 / TicksToSeconds(mean_service);
  const double a = lambda_total / mu;  // offered load in Erlangs
  double sum = 1.0;
  double term = 1.0;
  for (int k = 1; k < param.servers; ++k) {
    term *= a / k;
    sum += term;
  }
  term *= a / param.servers;
  const double erlang_c_num = term / (1.0 - param.rho);
  const double p_wait = erlang_c_num / (sum + erlang_c_num);
  const double expected_sojourn =
      p_wait / (param.servers * mu - lambda_total) + 1.0 / mu;

  EXPECT_GT(sojourn_s.count(), 50'000u);  // enough samples to average
  EXPECT_NEAR(sojourn_s.mean(), expected_sojourn, 0.08 * expected_sojourn);
  sim.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    LoadLevels, MmcQueueTest,
    ::testing::ValuesIn(kLoadLevels),
    [](const ::testing::TestParamInfo<MmcCase>& info) {
      char name[32];
      std::snprintf(name, sizeof(name), "c%d_rho%d", info.param.servers,
                    static_cast<int>(info.param.rho * 100));
      return std::string(name);
    });

TEST(QueueingTheoryTest, LittleLawHoldsOnQueueLength) {
  // L = lambda * W on the queue (excluding service): compare the resource's
  // time-averaged queue length to lambda * mean wait.
  const Ticks mean_service = 10'000;
  const double rho = 0.6;
  const double lambda = rho / TicksToSeconds(mean_service);
  const Ticks mean_interarrival =
      static_cast<Ticks>(1.0 / lambda * kTicksPerSecond);

  Simulator sim;
  Resource station(&sim, "station", 1);
  Pcg32 rng(9, 9);
  Tally sojourn_s;
  std::uint64_t spawned = 0;
  sim.Spawn(ArrivalSource(sim, station, rng, mean_interarrival, mean_service,
                          sojourn_s, spawned));
  sim.Run(SecondsToTicks(50));
  station.ResetStats(sim.Now());
  const Ticks start = sim.Now();
  sim.Run(start + SecondsToTicks(1000));
  const double mean_wait = station.wait_times().mean();
  const double mean_queue = station.MeanQueueLength(sim.Now());
  EXPECT_NEAR(mean_queue, lambda * mean_wait, 0.1 * mean_queue + 0.01);
  sim.Shutdown();
}

}  // namespace
}  // namespace ccsim::sim
