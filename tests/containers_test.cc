/**
 * @file
 * The timed path's fixed-footprint containers: InlineVector (per-call
 * result lists), RingQueue (link and chained-access queues) and
 * ListPool (MSHR waiter lists).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/inline_vector.h"
#include "src/common/list_pool.h"
#include "src/common/random.h"
#include "src/common/ring_queue.h"

namespace cmpsim {
namespace {

TEST(InlineVectorTest, BehavesLikeAShortVector)
{
    InlineVector<std::uint64_t, 4> v;
    EXPECT_TRUE(v.empty());
    for (std::uint64_t i = 1; i <= 4; ++i)
        v.push_back(i * 10);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], 10u);
    EXPECT_EQ(v.back(), 40u);
    std::uint64_t sum = 0;
    for (std::uint64_t x : v)
        sum += x;
    EXPECT_EQ(sum, 100u);
}

TEST(InlineVectorDeathTest, OverflowPanics)
{
    InlineVector<int, 1> v;
    v.push_back(1);
    EXPECT_DEATH(v.push_back(2), "InlineVector overflow");
}

TEST(RingQueueTest, MatchesDequeUnderRandomErases)
{
    RingQueue<int> ring;
    std::deque<int> ref;
    Random rng(7);
    int next = 0;
    for (int step = 0; step < 5000; ++step) {
        const auto op = rng.below(3);
        if (op < 2 || ref.empty()) {
            ring.push_back(next);
            ref.push_back(next);
            ++next;
        } else {
            const auto i = rng.below(ref.size());
            ring.erase(i);
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        }
        ASSERT_EQ(ring.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ring[i], ref[i]) << "step " << step;
    }
}

TEST(RingQueueTest, FifoAcrossWrapAndGrowth)
{
    RingQueue<int> q;
    for (int i = 0; i < 6; ++i)
        q.push_back(i);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    // The head now sits mid-buffer; growth must keep FIFO order.
    for (int i = 6; i < 30; ++i)
        q.push_back(i);
    for (int i = 5; i < 30; ++i) {
        ASSERT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(ListPoolTest, ListsStayFifoAndRecycleNodes)
{
    ListPool<int> pool;
    ListPool<int>::List a, b;
    pool.push_back(a, 1);
    pool.push_back(b, 10);
    pool.push_back(a, 2);
    pool.push_back(a, 3);

    std::vector<int> seen;
    pool.forEach(a, [&](int v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));

    // Draining may push onto other lists, reusing the freed nodes.
    seen.clear();
    pool.drain(a, [&](int v) {
        seen.push_back(v);
        pool.push_back(b, 10 + v);
    });
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(a.empty());

    seen.clear();
    pool.drain(b, [&](int v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<int>{10, 11, 12, 13}));
    EXPECT_TRUE(b.empty());
}

} // namespace
} // namespace cmpsim
