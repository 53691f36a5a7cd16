/**
 * @file
 * Unit tests for the statistics toolkit: running moments, exact
 * percentiles (selection checked against a full-sort reference) and
 * histograms.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace hercules {
namespace {

TEST(OnlineStats, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(OnlineStats, SingleValue)
{
    OnlineStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMoments)
{
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of the classic example set: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, NumericalStabilityLargeOffset)
{
    OnlineStats s;
    const double offset = 1e12;
    for (int i = 0; i < 1000; ++i)
        s.add(offset + (i % 2));
    EXPECT_NEAR(s.mean(), offset + 0.5, 1e-3);
    EXPECT_NEAR(s.variance(), 0.25, 1e-2);
}

TEST(OnlineStats, ResetClears)
{
    OnlineStats s;
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(PercentileTracker, EmptyReturnsZero)
{
    PercentileTracker t;
    EXPECT_DOUBLE_EQ(t.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_DOUBLE_EQ(t.max(), 0.0);
}

TEST(PercentileTracker, SingleSampleAllPercentiles)
{
    PercentileTracker t;
    t.add(42.0);
    EXPECT_DOUBLE_EQ(t.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(t.p50(), 42.0);
    EXPECT_DOUBLE_EQ(t.p99(), 42.0);
    EXPECT_DOUBLE_EQ(t.percentile(100), 42.0);
}

TEST(PercentileTracker, NearestRankDefinition)
{
    PercentileTracker t;
    for (int i = 1; i <= 100; ++i)
        t.add(static_cast<double>(i));
    // Nearest rank: p95 of 1..100 is the 95th value.
    EXPECT_DOUBLE_EQ(t.p95(), 95.0);
    EXPECT_DOUBLE_EQ(t.p50(), 50.0);
    EXPECT_DOUBLE_EQ(t.p99(), 99.0);
    EXPECT_DOUBLE_EQ(t.max(), 100.0);
}

TEST(PercentileTracker, UnsortedInsertOrder)
{
    PercentileTracker t;
    t.addAll({9.0, 1.0, 5.0, 3.0, 7.0});
    EXPECT_DOUBLE_EQ(t.p50(), 5.0);
    EXPECT_DOUBLE_EQ(t.max(), 9.0);
    EXPECT_NEAR(t.mean(), 5.0, 1e-12);
}

TEST(PercentileTracker, InterleavedAddAndQuery)
{
    PercentileTracker t;
    t.add(10.0);
    EXPECT_DOUBLE_EQ(t.p50(), 10.0);
    t.add(20.0);
    t.add(0.0);
    EXPECT_DOUBLE_EQ(t.p50(), 10.0);
    EXPECT_DOUBLE_EQ(t.max(), 20.0);
}

TEST(PercentileTracker, ResetClears)
{
    PercentileTracker t;
    t.add(1.0);
    t.reset();
    EXPECT_EQ(t.count(), 0u);
    EXPECT_DOUBLE_EQ(t.p95(), 0.0);
}

TEST(PercentileTrackerDeath, OutOfRangePercentilePanics)
{
    PercentileTracker t;
    t.add(1.0);
    EXPECT_DEATH(t.percentile(101.0), "percentile");
}

/** Nearest-rank percentile of a copy, by full sort (the reference). */
double
sortedPercentile(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return xs[std::min(idx, xs.size() - 1)];
}

TEST(PercentileTracker, SelectionMatchesSortReference)
{
    // Heavy duplicates (values drawn from a handful of levels) stress
    // the partition's tie handling; tiny trackers stress the rank
    // edges. Queries interleave with adds, so every query after the
    // first selects over a partially reordered sample vector.
    const double ps[] = {0.0, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0};
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        const size_t n =
            seed <= 4 ? seed % 2 + 1
                      : static_cast<size_t>(rng.uniformInt(3, 2000));
        const int levels = static_cast<int>(rng.uniformInt(1, 12));
        PercentileTracker t;
        std::vector<double> ref;
        for (size_t i = 0; i < n; ++i) {
            double x = rng.uniform() < 0.8
                           ? static_cast<double>(
                                 rng.uniformInt(0, levels - 1)) *
                                 0.25
                           : rng.uniform(-5.0, 5.0);
            t.add(x);
            ref.push_back(x);
            if (rng.uniform() < 0.05 || i + 1 == n) {
                for (double p : ps)
                    ASSERT_EQ(t.percentile(p), sortedPercentile(ref, p))
                        << "seed " << seed << " n " << ref.size()
                        << " p " << p;
                ASSERT_EQ(t.max(), *std::max_element(ref.begin(),
                                                     ref.end()));
                ASSERT_EQ(t.count(), ref.size());
            }
        }
    }
}

TEST(PercentileTracker, TwoSamples)
{
    PercentileTracker t;
    t.add(7.0);
    t.add(3.0);
    EXPECT_EQ(t.percentile(0), 3.0);
    EXPECT_EQ(t.percentile(50), 3.0);
    EXPECT_EQ(t.percentile(50.1), 7.0);
    EXPECT_EQ(t.percentile(100), 7.0);
    EXPECT_EQ(t.max(), 7.0);
}

TEST(PercentileTracker, MeanIsInsertionOrderSumUnchangedByQueries)
{
    // Values spanning many magnitudes, so the floating-point sum
    // depends on the order of summation.
    Rng rng(7);
    PercentileTracker t;
    double sum = 0.0;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform(0.5, 1.0) *
                   std::pow(10.0, static_cast<double>(
                                      rng.uniformInt(-6, 6)));
        t.add(x);
        sum += x;
    }
    const double before = t.mean();
    EXPECT_EQ(before, sum / 1000.0);
    t.p50();
    t.p99();
    t.max();
    EXPECT_EQ(t.mean(), before);
    t.add(1.0);
    EXPECT_EQ(t.mean(), (sum + 1.0) / 1001.0);
}

TEST(Histogram, BinEdgesAndCounts)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.bins(), 5u);
    EXPECT_DOUBLE_EQ(h.binLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.binHi(0), 2.0);
    EXPECT_DOUBLE_EQ(h.binLo(4), 8.0);
    h.add(1.0);
    h.add(1.5);
    h.add(9.0);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeClamped)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);
    h.add(1e9);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
}

TEST(Histogram, Fractions)
{
    Histogram h(0.0, 4.0, 4);
    h.add(0.5);
    h.add(1.5);
    h.add(1.7);
    h.add(3.5);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.25);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.50);
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.25);
}

TEST(Histogram, FractionOfEmptyIsZero)
{
    Histogram h(0.0, 1.0, 2);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
}

/** Percentiles must be monotone in p for any sample set. */
class PercentileMonotoneTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PercentileMonotoneTest, MonotoneInP)
{
    PercentileTracker t;
    // Deterministic pseudo-random samples.
    uint64_t x = static_cast<uint64_t>(GetParam()) * 2654435761u + 1;
    for (int i = 0; i < 257; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        t.add(static_cast<double>(x >> 40));
    }
    double prev = -1.0;
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                     100.0}) {
        double v = t.percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace hercules
