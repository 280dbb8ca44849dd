#include "src/mem/priority_link.h"

#include <gtest/gtest.h>

#include <vector>

namespace cmpsim {
namespace {

class PriorityLinkTest : public ::testing::Test
{
  protected:
    EventQueue eq;
};

TEST_F(PriorityLinkTest, SingleTransferSerialization)
{
    PriorityLink link(eq, 4.0, false);
    Cycle done = 0;
    link.send(72, LinkClass::Demand, 100, [&](Cycle c) { done = c; });
    eq.drain();
    EXPECT_EQ(done, 118u); // 72 B @ 4 B/cycle
    EXPECT_EQ(link.totalBytes(), 72u);
    EXPECT_EQ(link.transfers(), 1u);
}

TEST_F(PriorityLinkTest, SameClassIsFifo)
{
    PriorityLink link(eq, 4.0, false);
    std::vector<int> order;
    link.send(40, LinkClass::Demand, 0,
              [&](Cycle) { order.push_back(1); });
    link.send(40, LinkClass::Demand, 0,
              [&](Cycle) { order.push_back(2); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(PriorityLinkTest, DemandOvertakesQueuedPrefetch)
{
    PriorityLink link(eq, 4.0, false);
    std::vector<int> order;
    // One prefetch occupies the link; more prefetches queue; a demand
    // arriving later must transmit before the queued prefetches.
    for (int i = 0; i < 3; ++i) {
        link.send(400, LinkClass::Prefetch, 0,
                  [&, i](Cycle) { order.push_back(10 + i); });
    }
    link.send(40, LinkClass::Demand, 5,
              [&](Cycle) { order.push_back(1); });
    eq.drain();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 10); // already in flight
    EXPECT_EQ(order[1], 1);  // demand jumps the prefetch queue
}

TEST_F(PriorityLinkTest, PrefetchOvertakesQueuedWriteback)
{
    PriorityLink link(eq, 4.0, false);
    std::vector<int> order;
    link.send(400, LinkClass::Writeback, 0,
              [&](Cycle) { order.push_back(1); });
    link.send(400, LinkClass::Writeback, 0,
              [&](Cycle) { order.push_back(2); });
    link.send(40, LinkClass::Prefetch, 5,
              [&](Cycle) { order.push_back(3); });
    eq.drain();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[1], 3);
}

TEST_F(PriorityLinkTest, WritebackHighWaterPromotes)
{
    PriorityLink link(eq, 4.0, false);
    // Flood the writeback queue past the high-water mark, then offer
    // a demand message: the backed-up writebacks must drain first.
    int wb_done = 0;
    for (int i = 0; i < 20; ++i)
        link.send(72, LinkClass::Writeback, 0,
                  [&](Cycle) { ++wb_done; });
    Cycle demand_done = 0;
    link.send(8, LinkClass::Demand, 0,
              [&](Cycle c) { demand_done = c; });
    eq.drain();
    EXPECT_EQ(wb_done, 20);
    // The demand finished after several promoted writebacks (i.e., it
    // did not preempt the whole backlog).
    EXPECT_GT(demand_done, 72u / 4);
}

TEST_F(PriorityLinkTest, InfiniteModeCountsButNeverQueues)
{
    PriorityLink link(eq, 4.0, true);
    Cycle a = 0, b = 0;
    link.send(400, LinkClass::Demand, 0, [&](Cycle c) { a = c; });
    link.send(400, LinkClass::Demand, 0, [&](Cycle c) { b = c; });
    eq.drain();
    EXPECT_EQ(a, b);
    EXPECT_EQ(link.totalBytes(), 800u);
    EXPECT_DOUBLE_EQ(link.meanQueueDelay(), 0.0);
}

TEST_F(PriorityLinkTest, NotReadyMessagesWaitTheirTurn)
{
    PriorityLink link(eq, 4.0, false);
    std::vector<int> order;
    link.send(40, LinkClass::Demand, 100,
              [&](Cycle) { order.push_back(1); });
    link.send(40, LinkClass::Prefetch, 0,
              [&](Cycle) { order.push_back(2); });
    eq.drain();
    // The prefetch is ready first and transmits first despite the
    // queued (not yet ready) demand message.
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(PriorityLinkTest, ClassBytesAccounted)
{
    PriorityLink link(eq, 4.0, false);
    link.send(72, LinkClass::Demand, 0, nullptr);
    link.send(72, LinkClass::Prefetch, 0, nullptr);
    link.send(16, LinkClass::Writeback, 0, nullptr);
    eq.drain();
    EXPECT_EQ(link.classBytes(LinkClass::Demand), 72u);
    EXPECT_EQ(link.classBytes(LinkClass::Prefetch), 72u);
    EXPECT_EQ(link.classBytes(LinkClass::Writeback), 16u);
    EXPECT_EQ(link.totalBytes(), 160u);
}

TEST_F(PriorityLinkTest, BacklogDrainsToZero)
{
    PriorityLink link(eq, 4.0, false);
    for (int i = 0; i < 10; ++i)
        link.send(72, LinkClass::Prefetch, 0, nullptr);
    EXPECT_GT(link.backlog(), 0u);
    eq.drain();
    EXPECT_EQ(link.backlog(), 0u);
}

TEST_F(PriorityLinkTest, ResetStatsKeepsSchedule)
{
    PriorityLink link(eq, 4.0, false);
    StatRegistry reg;
    link.registerStats(reg, "link");
    link.send(4000, LinkClass::Demand, 0, nullptr);
    reg.resetAll();
    link.resetStats();
    EXPECT_EQ(link.totalBytes(), 0u);
    Cycle done = 0;
    link.send(4, LinkClass::Demand, 0, [&](Cycle c) { done = c; });
    eq.drain();
    EXPECT_GE(done, 1000u); // still behind the in-flight transfer
}

TEST_F(PriorityLinkTest, ThroughputMatchesRate)
{
    PriorityLink link(eq, 8.0, false);
    Cycle last = 0;
    for (int i = 0; i < 100; ++i)
        link.send(80, LinkClass::Demand, 0, [&](Cycle c) { last = c; });
    eq.drain();
    // 100 x 80 B at 8 B/cycle = 1000 cycles.
    EXPECT_EQ(last, 1000u);
}

} // namespace
} // namespace cmpsim
