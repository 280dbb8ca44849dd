#include "src/sim/bandwidth_resource.h"

#include <gtest/gtest.h>

namespace cmpsim {
namespace {

TEST(BandwidthResourceTest, SingleTransferSerializationTime)
{
    BandwidthResource link(4.0); // 4 bytes/cycle
    // 72-byte message: 18 cycles.
    EXPECT_EQ(link.reserve(100, 72), 118u);
    EXPECT_EQ(link.totalBytes(), 72u);
    EXPECT_EQ(link.transfers(), 1u);
}

TEST(BandwidthResourceTest, BackToBackTransfersQueue)
{
    BandwidthResource link(4.0);
    EXPECT_EQ(link.reserve(0, 40), 10u);  // busy [0,10)
    EXPECT_EQ(link.reserve(0, 40), 20u);  // waits until 10
    EXPECT_EQ(link.reserve(5, 8), 22u);   // waits until 20
    EXPECT_GT(link.meanQueueDelay(), 0.0);
}

TEST(BandwidthResourceTest, IdleGapsDoNotQueue)
{
    BandwidthResource link(4.0);
    link.reserve(0, 8);                  // done at 2
    EXPECT_EQ(link.reserve(100, 8), 102u);
    EXPECT_DOUBLE_EQ(link.meanQueueDelay(), 0.0);
}

TEST(BandwidthResourceTest, FractionalCyclesRoundUp)
{
    BandwidthResource link(4.0);
    // 6 bytes @4 B/c = 1.5 cycles -> arrives at cycle 2.
    EXPECT_EQ(link.reserve(0, 6), 2u);
    // Next transfer starts at 1.5, not 2: no capacity lost.
    EXPECT_EQ(link.reserve(0, 6), 3u);
}

TEST(BandwidthResourceTest, BusyCyclesAccumulate)
{
    BandwidthResource link(8.0);
    link.reserve(0, 80);
    link.reserve(50, 40);
    EXPECT_DOUBLE_EQ(link.busyCycles(), 15.0);
}

TEST(BandwidthResourceTest, ResetStatsClearsAccountingNotSchedule)
{
    BandwidthResource link(4.0);
    link.reserve(0, 4000); // busy until 1000
    link.resetStats();
    EXPECT_EQ(link.totalBytes(), 0u);
    // The channel is still busy: new transfer queues behind.
    EXPECT_GT(link.reserve(0, 4), 1000u);
}

TEST(BandwidthResourceTest, HigherRateFinishesSooner)
{
    BandwidthResource slow(2.0), fast(16.0);
    EXPECT_GT(slow.reserve(0, 64), fast.reserve(0, 64));
}

} // namespace
} // namespace cmpsim
