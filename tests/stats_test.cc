#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/common/sim_error.h"

namespace cmpsim {
namespace {

TEST(CounterTest, AccumulatesAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(AverageTest, MeanOfSamples)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(HistogramTest, BucketsAndOverflow)
{
    Histogram h(10.0, 4); // buckets [0,10) [10,20) [20,30) [30,40) + ovf
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(39);
    h.sample(100); // overflow
    h.sample(-3);  // underflow bucket, not bucket 0
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.total(), 6u);
}

TEST(HistogramTest, MeanTracksSamples)
{
    Histogram h(1.0, 100);
    h.sample(2);
    h.sample(4);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(HistogramTest, UnderflowCountsInMeanAndReset)
{
    Histogram h(1.0, 4);
    h.sample(-2.0);
    h.sample(2.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0); // negative sample still in the sum
    h.reset();
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.total(), 0u);
}

TEST(HistogramTest, QuantileBucketUpperEdges)
{
    Histogram h(10.0, 4);
    // 10 samples: 4 in [0,10), 4 in [10,20), 2 in [20,30).
    for (int i = 0; i < 4; ++i)
        h.sample(5);
    for (int i = 0; i < 4; ++i)
        h.sample(15);
    h.sample(25);
    h.sample(25);
    EXPECT_DOUBLE_EQ(h.quantile(0.4), 10.0); // 4/10 within [0,10)
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 20.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.8), 20.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 30.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
}

TEST(HistogramTest, QuantileEmptyAndUnderflow)
{
    Histogram h(10.0, 4);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0); // empty
    h.sample(-1);
    h.sample(-1);
    h.sample(5);
    h.sample(5);
    // p50 lands entirely in the underflow bucket -> reported as 0.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(StatRegistryTest, RegisterAndLookup)
{
    StatRegistry reg;
    Counter misses;
    reg.registerCounter("l2.misses", &misses);
    misses += 7;
    EXPECT_EQ(reg.counter("l2.misses"), 7u);
    EXPECT_TRUE(reg.hasCounter("l2.misses"));
    EXPECT_FALSE(reg.hasCounter("l2.hits"));
}

TEST(StatRegistryTest, DumpSortedOutput)
{
    StatRegistry reg;
    Counter b, a;
    reg.registerCounter("b.count", &b);
    reg.registerCounter("a.count", &a);
    ++a;
    b += 2;
    std::ostringstream os;
    reg.dump(os);
    EXPECT_EQ(os.str(), "a.count 1\nb.count 2\n");
}

TEST(StatRegistryTest, ResetAllZeroesCounters)
{
    StatRegistry reg;
    Counter c;
    Average a;
    reg.registerCounter("c", &c);
    reg.registerAverage("a", &a);
    c += 5;
    a.sample(2);
    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(a.count(), 0u);
}

TEST(StatRegistryTest, HistogramLookupDumpAndReset)
{
    StatRegistry reg;
    Histogram h(10.0, 4);
    reg.registerHistogram("l2.lat", &h);
    h.sample(5);
    h.sample(15);
    EXPECT_EQ(&reg.histogram("l2.lat"), &h);
    const auto names = reg.histogramNames();
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "l2.lat");

    std::ostringstream os;
    reg.dump(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("l2.lat.count 2\n"), std::string::npos);
    EXPECT_NE(dump.find("l2.lat.mean 10\n"), std::string::npos);
    EXPECT_NE(dump.find("l2.lat.p50 10\n"), std::string::npos);
    EXPECT_NE(dump.find("l2.lat.p99 20\n"), std::string::npos);
    EXPECT_NE(dump.find("l2.lat.underflow 0\n"), std::string::npos);

    reg.resetAll();
    EXPECT_EQ(h.total(), 0u);
}

TEST(StatRegistryTest, CounterNamesSorted)
{
    StatRegistry reg;
    Counter x, y;
    reg.registerCounter("z", &x);
    reg.registerCounter("a", &y);
    const auto names = reg.counterNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "z");
}

TEST(StatRegistryTest, NameErrorsAreInvariantErrors)
{
    // A stat name registered twice or looked up but never registered
    // is a cmpsim bug, not an impossible configuration.
    StatRegistry reg;
    Counter a, b;
    reg.registerCounter("l2.misses", &a);
    EXPECT_THROW(reg.registerCounter("l2.misses", &b), InvariantError);
    EXPECT_THROW(reg.counter("l2.hits"), InvariantError);
}

TEST(SummaryTest, EmptyAndSingle)
{
    EXPECT_EQ(summarize({}).n, 0u);
    const auto s = summarize({5.0});
    EXPECT_EQ(s.n, 1u);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(SummaryTest, MeanAndCiOfKnownSamples)
{
    // n=4, mean 10, sample sd ~ 2.582; CI = 3.182 * sd/2
    const auto s = summarize({7, 9, 11, 13});
    EXPECT_EQ(s.n, 4u);
    EXPECT_DOUBLE_EQ(s.mean, 10.0);
    EXPECT_NEAR(s.ci95, 3.182 * 2.5819889 / 2.0, 1e-3);
}

TEST(SummaryTest, IdenticalSamplesHaveZeroCi)
{
    const auto s = summarize({4.2, 4.2, 4.2});
    EXPECT_DOUBLE_EQ(s.mean, 4.2);
    EXPECT_NEAR(s.ci95, 0.0, 1e-12);
}

} // namespace
} // namespace cmpsim
