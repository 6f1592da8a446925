// Tests for statistics accumulators and the PCG32 random generator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <iterator>

#include "sim/random.h"
#include "sim/stats.h"

namespace ccsim::sim {
namespace {

TEST(TallyTest, BasicMoments) {
  Tally tally;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    tally.Add(x);
  }
  EXPECT_EQ(tally.count(), 4u);
  EXPECT_DOUBLE_EQ(tally.mean(), 2.5);
  EXPECT_NEAR(tally.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(tally.min(), 1.0);
  EXPECT_DOUBLE_EQ(tally.max(), 4.0);
  EXPECT_DOUBLE_EQ(tally.sum(), 10.0);
}

TEST(TallyTest, EmptyIsZero) {
  Tally tally;
  EXPECT_EQ(tally.count(), 0u);
  EXPECT_EQ(tally.mean(), 0.0);
  EXPECT_EQ(tally.variance(), 0.0);
}

TEST(TallyTest, ResetClears) {
  Tally tally;
  tally.Add(5.0);
  tally.Reset();
  EXPECT_EQ(tally.count(), 0u);
  EXPECT_EQ(tally.mean(), 0.0);
}

// Merging tallies is how a run's nodes are harvested: the merge of two
// halves matches one tally of every sample, and a tally merged into an
// empty one keeps its bits (the simulator's outputs depend on that).
TEST(TallyTest, MergeMatchesOneTallyOfAllSamples) {
  Tally whole;
  Tally first;
  Tally second;
  const double samples[] = {0.3, 1.7, 2.2, 9.1, 4.4, 0.05, 3.3};
  for (std::size_t i = 0; i < std::size(samples); ++i) {
    whole.Add(samples[i]);
    (i < 3 ? first : second).Add(samples[i]);
  }
  Tally merged;
  merged.Merge(first);
  EXPECT_EQ(merged.mean(), first.mean());
  EXPECT_EQ(merged.variance(), first.variance());
  merged.Merge(second);
  merged.Merge(Tally());
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-12);
  EXPECT_EQ(merged.min(), 0.05);
  EXPECT_EQ(merged.max(), 9.1);
}

TEST(TimeWeightedTest, StepFunctionAverage) {
  TimeWeighted tw(0.0);
  tw.Set(2.0, 10);   // value 0 over [0,10), 2 over [10,30), 4 over [30,40]
  tw.Set(4.0, 30);
  EXPECT_NEAR(tw.TimeAverage(40), (0 * 10 + 2 * 20 + 4 * 10) / 40.0, 1e-12);
}

TEST(TimeWeightedTest, ResetRestartsWindow) {
  TimeWeighted tw(1.0);
  tw.Set(3.0, 10);
  tw.Reset(10);
  EXPECT_NEAR(tw.TimeAverage(20), 3.0, 1e-12);
}

TEST(TimeWeightedTest, AddAdjustsValue) {
  TimeWeighted tw(0.0);
  tw.Add(1.0, 0);
  tw.Add(1.0, 10);
  tw.Add(-2.0, 20);
  EXPECT_NEAR(tw.TimeAverage(30), (1 * 10 + 2 * 10 + 0 * 10) / 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(tw.current(), 0.0);
}

TEST(BatchMeansTest, MeanMatchesSamples) {
  BatchMeans bm(/*batch_size=*/2);
  for (double x : {1.0, 3.0, 5.0, 7.0}) {
    bm.Add(x);
  }
  EXPECT_EQ(bm.num_batches(), 2u);
  EXPECT_DOUBLE_EQ(bm.Mean(), 4.0);
  EXPECT_GT(bm.HalfWidth90(), 0.0);
}

TEST(BatchMeansTest, MergeAppendsCompleteBatches) {
  BatchMeans a(/*batch_size=*/2);
  BatchMeans b(/*batch_size=*/2);
  for (double x : {1.0, 3.0, 5.0}) {
    a.Add(x);  // one batch (2.0) and a partial one
  }
  for (double x : {7.0, 9.0}) {
    b.Add(x);  // one batch (8.0)
  }
  BatchMeans merged;
  merged.Merge(a);
  EXPECT_EQ(merged.HalfWidth90(), a.HalfWidth90());
  merged.Merge(b);
  EXPECT_EQ(merged.num_batches(), 2u);
  EXPECT_DOUBLE_EQ(merged.Mean(), 5.0);
}

TEST(BatchMeansTest, FewBatchesNoInterval) {
  BatchMeans bm(/*batch_size=*/10);
  bm.Add(1.0);
  EXPECT_EQ(bm.num_batches(), 0u);
  EXPECT_EQ(bm.HalfWidth90(), 0.0);
}

TEST(Pcg32Test, DeterministicForSeed) {
  Pcg32 a(/*seed=*/123, /*stream=*/7);
  Pcg32 b(/*seed=*/123, /*stream=*/7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(Pcg32Test, StreamsDiffer) {
  Pcg32 a(/*seed=*/123, /*stream=*/1);
  Pcg32 b(/*seed=*/123, /*stream=*/2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() != b.NextU32()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 60);
}

TEST(Pcg32Test, UniformIntInRange) {
  Pcg32 rng(42, 0);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Pcg32Test, UniformIntCoversEndpoints) {
  Pcg32 rng(42, 0);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(0, 4);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Pcg32Test, UniformIntMeanApproximatelyCentered) {
  Pcg32 rng(7, 3);
  Tally tally;
  for (int i = 0; i < 100000; ++i) {
    tally.Add(static_cast<double>(rng.UniformInt(0, 100)));
  }
  EXPECT_NEAR(tally.mean(), 50.0, 0.5);
}

TEST(Pcg32Test, ExponentialMeanMatches) {
  Pcg32 rng(99, 5);
  Tally tally;
  for (int i = 0; i < 200000; ++i) {
    tally.Add(rng.Exponential(2.0));
  }
  EXPECT_NEAR(tally.mean(), 2.0, 0.05);
  // Exponential: stddev == mean.
  EXPECT_NEAR(tally.stddev(), 2.0, 0.1);
}

TEST(Pcg32Test, BernoulliProbability) {
  Pcg32 rng(1, 1);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.25)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Pcg32Test, ZeroMeanExponentialIsZero) {
  Pcg32 rng(1, 1);
  EXPECT_EQ(rng.Exponential(0.0), 0.0);
  EXPECT_EQ(rng.ExponentialTicks(0), 0);
}

}  // namespace
}  // namespace ccsim::sim
