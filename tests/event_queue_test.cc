#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/random.h"

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
    // The self-reference lives in a std::function outside the queue;
    // each event holds only a reference to it.
    std::function<void(Cycle)> chain = [&](Cycle) {
        if (++depth < 10)
            eq.schedule(eq.now(), [&chain](Cycle c) { chain(c); });
    };
    eq.schedule(3, [&chain](Cycle c) { chain(c); });
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
    // Many events at duplicated cycles, scheduled out of order,
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

TEST(EventQueueTest, ParkedOverflowEventRunsBeforeLaterPeer)
{
    // An event scheduled a wheel's span or more ahead waits in the
    // overflow heap. A peer scheduled for the same cycle after now()
    // has come within range is younger, so the parked event must run
    // first: it has to migrate as soon as now() advances, not when its
    // bucket is reached.
    constexpr Cycle kW = EventQueue::kWheelSlots;
    for (const Cycle when : {kW, kW + 10, 3 * kW}) {
        EventQueue eq;
        std::vector<int> order;
        eq.schedule(when, [&](Cycle) { order.push_back(0); });
        eq.advanceTo(when - kW + 1);
        EXPECT_EQ(eq.nextEventCycle(), when);
        eq.schedule(when, [&](Cycle) { order.push_back(1); });
        EXPECT_EQ(eq.size(), 2u);
        EXPECT_EQ(eq.drain(), 2u);
        EXPECT_EQ(order, (std::vector<int>{0, 1})) << "when=" << when;
        EXPECT_EQ(eq.now(), when);
    }
}

// ------------------------------------------- differential order check

constexpr Cycle kW = EventQueue::kWheelSlots;

/** Delays the order check draws: near, both edges of the wheel, whole
 *  spans past it, and far beyond any simulated delay. */
const Cycle kDelays[] = {0, 1, 2, 7, 63, kW - 1, kW, kW + 1, 3 * kW,
                         Cycle{1} << 40};
constexpr std::size_t kNumDelays = std::size(kDelays);
/** The delays that keep now() in reach: all but the last, 2^40. */
constexpr std::size_t kReachable = kNumDelays - 1;

/** Delays of the events a fired event schedules: a pure function of
 *  its id, so both kernels run the same program. 0.75 children per
 *  event on average, so every cascade dies out. */
std::vector<Cycle>
childDelays(std::uint64_t id)
{
    Random rng(id + 1);
    std::vector<Cycle> out;
    for (int i = 0; i < 3; ++i) {
        if (rng.below(4) == 0)
            out.push_back(kDelays[rng.below(kNumDelays)]);
    }
    return out;
}

/** EventQueue driven by the order check; events record their ids. */
struct KernelUnderTest
{
    EventQueue eq;
    std::vector<std::uint64_t> fired;
    std::uint64_t next_id = 0;

    void
    schedule(Cycle when)
    {
        const std::uint64_t id = next_id++;
        eq.schedule(when, [this, id](Cycle c) {
            EXPECT_EQ(c, eq.now());
            fired.push_back(id);
            for (const Cycle d : childDelays(id))
                schedule(eq.now() + d);
        });
    }
};

/** The specification: pending events in a (when, seq) ordered set. */
struct ReferenceKernel
{
    std::set<std::tuple<Cycle, std::uint64_t, std::uint64_t>> pending;
    std::vector<std::uint64_t> fired;
    std::uint64_t next_id = 0;
    std::uint64_t seq = 0;
    Cycle now = 0;

    void
    schedule(Cycle when)
    {
        pending.emplace(when, seq++, next_id++);
    }

    std::uint64_t
    drain(Cycle limit)
    {
        std::uint64_t executed = 0;
        if (now > limit)
            return 0;
        while (!pending.empty() && std::get<0>(*pending.begin()) <= limit) {
            const auto [when, s, id] = *pending.begin();
            pending.erase(pending.begin());
            now = when;
            fired.push_back(id);
            for (const Cycle d : childDelays(id))
                schedule(now + d);
            ++executed;
        }
        return executed;
    }

    void
    advanceTo(Cycle when)
    {
        drain(when);
        now = when;
    }

    Cycle
    nextEventCycle() const
    {
        return pending.empty() ? kCycleNever
                               : std::get<0>(*pending.begin());
    }
};

TEST(EventQueueTest, MatchesReferenceOrderUnderRandomTraffic)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        Random rng(seed);
        KernelUnderTest k;
        ReferenceKernel ref;
        const auto delay = [&] {
            return rng.below(2) == 0 ? rng.below(64)
                                     : kDelays[rng.below(kNumDelays)];
        };
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t op = rng.below(16);
            const Cycle now = ref.now;
            std::uint64_t ran = 0, ref_ran = 0;
            if (op < 8) {
                const Cycle when = now + delay();
                k.schedule(when);
                ref.schedule(when);
            } else if (op < 12) {
                const Cycle when =
                    now + (rng.below(2) == 0
                               ? rng.below(64)
                               : kDelays[rng.below(kReachable)]);
                k.eq.advanceTo(when);
                ref.advanceTo(when);
            } else if (op < 15) {
                // Limits behind now() (which run nothing), at it and
                // ahead of it.
                const Cycle back = std::min<Cycle>(now, rng.below(3));
                const Cycle limit =
                    rng.below(3) == 0
                        ? now - back
                        : now + kDelays[rng.below(kReachable)];
                ran = k.eq.drain(limit);
                ref_ran = ref.drain(limit);
            } else {
                ran = k.eq.drain();
                ref_ran = ref.drain(kCycleNever);
            }
            ASSERT_EQ(k.fired, ref.fired) << "seed " << seed << " step "
                                          << step << " op " << op;
            ASSERT_EQ(ran, ref_ran) << "seed " << seed << " step " << step;
            ASSERT_EQ(k.eq.now(), ref.now)
                << "seed " << seed << " step " << step;
            ASSERT_EQ(k.eq.size(), ref.pending.size())
                << "seed " << seed << " step " << step;
            ASSERT_EQ(k.eq.nextEventCycle(), ref.nextEventCycle())
                << "seed " << seed << " step " << step;
        }
        EXPECT_GT(ref.fired.size(), 1000u);
    }
}

} // namespace
} // namespace cmpsim
