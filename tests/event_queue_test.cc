#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace cmpsim {
namespace {

TEST(EventQueueTest, StartsEmptyAtCycleZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.nextEventCycle(), kCycleNever);
}

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&](Cycle) { order.push_back(3); });
    eq.schedule(10, [&](Cycle) { order.push_back(1); });
    eq.schedule(20, [&](Cycle) { order.push_back(2); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueueTest, SameCycleEventsRunInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&order, i](Cycle) { order.push_back(i); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&](Cycle) {
        ++fired;
        eq.schedule(2, [&](Cycle) {
            ++fired;
            eq.schedule(5, [&](Cycle) { ++fired; });
        });
    });
    eq.drain();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueueTest, AdvanceToRunsOnlyDueEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&](Cycle) { ++fired; });
    eq.schedule(15, [&](Cycle) { ++fired; });
    eq.advanceTo(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.nextEventCycle(), 15u);
    eq.advanceTo(15);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, NowTracksEventBeingRun)
{
    EventQueue eq;
    Cycle seen = 0;
    eq.schedule(42, [&](Cycle) { seen = eq.now(); });
    eq.drain();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueueTest, DrainWithLimitLeavesFutureEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&](Cycle) { ++fired; });
    eq.schedule(100, [&](Cycle) { ++fired; });
    EXPECT_EQ(eq.drain(50), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
}

TEST(EventQueueTest, ZeroDelayEventAtCurrentCycleRuns)
{
    EventQueue eq;
    eq.advanceTo(10);
    bool ran = false;
    eq.schedule(10, [&](Cycle) { ran = true; });
    eq.advanceTo(10);
    EXPECT_TRUE(ran);
}

TEST(EventQueueTest, SameCycleContinuationsRunAfterOlderPeers)
{
    // Events already pending at cycle T must run before continuations
    // scheduled back at T while T executes — strict (when, seq) order.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&](Cycle) {
        order.push_back(0);
        eq.schedule(5, [&](Cycle) { order.push_back(2); });
        eq.schedule(5, [&](Cycle) { order.push_back(3); });
    });
    eq.schedule(5, [&](Cycle) { order.push_back(1); });
    eq.schedule(6, [&](Cycle) { order.push_back(4); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NestedSameCycleCascadeRunsToCompletion)
{
    EventQueue eq;
    int depth = 0;
    std::function<void(Cycle)> chain = [&](Cycle) {
        if (++depth < 10)
            eq.schedule(eq.now(), chain);
    };
    eq.schedule(3, chain);
    EXPECT_EQ(eq.drain(), 10u);
    EXPECT_EQ(depth, 10);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, SizeAndNextCycleSeeSameCyclePendings)
{
    EventQueue eq;
    eq.advanceTo(4);
    eq.schedule(4, [](Cycle) {});
    eq.schedule(9, [](Cycle) {});
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.nextEventCycle(), 4u);
    eq.advanceTo(4);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextEventCycle(), 9u);
}

TEST(EventQueueTest, ReservePreservesOrderAndContents)
{
    EventQueue eq;
    eq.reserve(64);
    std::vector<int> order;
    for (int i = 0; i < 32; ++i)
        eq.schedule(static_cast<Cycle>(100 - i), [&order, i](Cycle) {
            order.push_back(i);
        });
    eq.drain();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], 31 - i);
}

TEST(EventQueueTest, InterleavedCyclesKeepScheduleOrder)
{
    // Stress the key heap: many events at duplicated cycles
    // must still pop in exact (when, seq) order.
    EventQueue eq;
    std::vector<std::pair<Cycle, int>> order;
    int n = 0;
    for (Cycle when : {30u, 10u, 20u, 10u, 30u, 20u, 10u, 40u, 10u}) {
        const int id = n++;
        eq.schedule(when, [&, when, id](Cycle) { order.emplace_back(when, id); });
    }
    eq.drain();
    const std::vector<std::pair<Cycle, int>> expect = {
        {10, 1}, {10, 3}, {10, 6}, {10, 8}, {20, 2},
        {20, 5}, {30, 0}, {30, 4}, {40, 7},
    };
    EXPECT_EQ(order, expect);
}

} // namespace
} // namespace cmpsim
