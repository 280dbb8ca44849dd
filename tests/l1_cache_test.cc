#include "src/cache/l1_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/compression/fpc.h"

namespace cmpsim {
namespace {

/** Two-core L1/L2 hierarchy over real memory. */
class L1CacheTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    FpcCompressor fpc;
    ValueStore values{fpc};
    std::unique_ptr<MainMemory> mem;
    std::unique_ptr<L2Cache> l2;
    std::vector<std::unique_ptr<L1Cache>> l1s;

    void
    build(unsigned l1_sets = 4, unsigned victim_tags = 0)
    {
        MemoryParams mp;
        mem = std::make_unique<MainMemory>(eq, values, mp);

        L2Params p2;
        p2.sets = 64;
        p2.banks = 2;
        p2.cores = 2;
        l2 = std::make_unique<L2Cache>(eq, values, *mem, p2);

        L1Params p1;
        p1.sets = l1_sets;
        p1.ways = 4;
        p1.victim_tags = victim_tags;
        for (unsigned c = 0; c < 2; ++c)
            l1s.push_back(std::make_unique<L1Cache>(eq, *l2, c, p1));

        l2->setL1Invalidator([this](unsigned cpu, Addr line) {
            return l1s[cpu]->invalidateLine(line);
        });
        l2->setL1Downgrader([this](unsigned cpu, Addr line) {
            l1s[cpu]->downgradeLine(line);
        });
    }

    Addr
    la(std::uint64_t i)
    {
        return i << kLineShift;
    }

    Cycle
    run(unsigned cpu, Addr addr, bool write, Cycle when)
    {
        Cycle at = 0;
        l1s[cpu]->access(addr, write, when, [&](Cycle c) { at = c; });
        eq.drain();
        return at;
    }
};

TEST_F(L1CacheTest, HitTakesThreeCycles)
{
    build();
    run(0, 0x1000, false, 0); // warm
    const Cycle t = run(0, 0x1000, false, 10000);
    EXPECT_EQ(t, 10003u);
    EXPECT_EQ(l1s[0]->hits(), 1u);
    EXPECT_EQ(l1s[0]->misses(), 1u);
}

TEST_F(L1CacheTest, SameLineDifferentWordsHit)
{
    build();
    run(0, 0x1000, false, 0);
    run(0, 0x1030, false, 10000);
    EXPECT_EQ(l1s[0]->hits(), 1u);
}

TEST_F(L1CacheTest, MissThroughL2HitIsTensOfCycles)
{
    build();
    run(0, 0x1000, false, 0);
    // Evict from L1 only: fill set 0 of L1 (4 ways) with other lines
    // mapping to the same L1 set (sets=4 -> stride 4 lines).
    for (std::uint64_t i = 1; i <= 4; ++i)
        run(0, la(i * 4), false, i * 10000);
    const Cycle t0 = 100000;
    const Cycle t = run(0, 0x1000, false, t0);
    EXPECT_GT(t - t0, 15u);
    EXPECT_LT(t - t0, 40u); // well below the ~420-cycle memory path
}

TEST_F(L1CacheTest, MissThroughMemoryIsHundredsOfCycles)
{
    build();
    const Cycle t = run(0, 0x1000, false, 0);
    EXPECT_GT(t, 400u);
    EXPECT_LT(t, 500u);
}

TEST_F(L1CacheTest, WriteMissInstallsModified)
{
    build();
    run(0, 0x2000, true, 0);
    const TagEntry *e = l1s[0]->setAt(
        static_cast<unsigned>(lineNumber(0x2000) % 4)).find(la(128));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->dirty);
    // Write hit afterwards completes locally in 3 cycles.
    const Cycle t = run(0, 0x2000, true, 50000);
    EXPECT_EQ(t, 50003u);
    EXPECT_EQ(l1s[0]->hits(), 1u);
}

TEST_F(L1CacheTest, WriteToSharedLineUpgrades)
{
    build();
    run(0, 0x3000, false, 0);     // S in cpu0
    run(1, 0x3000, false, 10000); // S in cpu1
    const Cycle t0 = 50000;
    const Cycle t = run(0, 0x3000, true, t0);
    EXPECT_GT(t - t0, 3u); // upgrade round trip, not a local hit
    // cpu1's copy is gone.
    EXPECT_EQ(l1s[1]->setAt(
        static_cast<unsigned>(lineNumber(0x3000) % 4)).find(
            lineAddr(0x3000)), nullptr);
    // cpu0 is now M.
    const TagEntry *e = l1s[0]->setAt(
        static_cast<unsigned>(lineNumber(0x3000) % 4)).find(
            lineAddr(0x3000));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->dirty);
}

TEST_F(L1CacheTest, ReadOfModifiedLineDowngradesOwner)
{
    build();
    run(0, 0x4000, true, 0); // M in cpu0
    run(1, 0x4000, false, 50000);
    const TagEntry *e0 = l1s[0]->setAt(
        static_cast<unsigned>(lineNumber(0x4000) % 4)).find(
            lineAddr(0x4000));
    ASSERT_NE(e0, nullptr);
    EXPECT_FALSE(e0->dirty); // demoted to S
    // Both are sharers at the L2.
    const TagEntry *e2 =
        l2->setAt(l2->setIndexOf(lineAddr(0x4000))).find(
            lineAddr(0x4000));
    ASSERT_NE(e2, nullptr);
    EXPECT_TRUE(e2->hasSharer(0));
    EXPECT_TRUE(e2->hasSharer(1));
    EXPECT_TRUE(e2->dirty); // L2 holds the merged data
}

TEST_F(L1CacheTest, DirtyEvictionWritesBackToL2)
{
    build();
    run(0, 0x1000, true, 0); // M
    const auto onchip_before = l2->onchip().totalBytes();
    // Evict from L1 set 0.
    for (std::uint64_t i = 1; i <= 4; ++i)
        run(0, la(64 + i * 4), false, i * 10000); // other L2 sets
    EXPECT_GE(l2->onchip().totalBytes(),
              onchip_before + kLineBytes);
    // L2's copy is dirty and unowned.
    const TagEntry *e =
        l2->setAt(l2->setIndexOf(la(64))).find(la(64));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->dirty);
    EXPECT_EQ(e->owner, kNoOwner);
}

TEST_F(L1CacheTest, InclusionL2EvictionDropsL1Line)
{
    build(64); // big L1 so nothing self-evicts
    run(0, la(0), false, 0);
    // Fill L2 set 0 (8 ways; L2 sets=64 -> stride 64 lines).
    for (std::uint64_t i = 1; i <= 8; ++i)
        run(0, la(i * 64), false, i * 10000);
    EXPECT_EQ(l1s[0]->setAt(0).find(la(0)), nullptr);
    EXPECT_GE(l1s[0]->accesses(), 9u);
}

TEST_F(L1CacheTest, MshrCoalescesSameLine)
{
    build();
    Cycle a = 0, b = 0;
    l1s[0]->access(0x5000, false, 0, [&](Cycle c) { a = c; });
    l1s[0]->access(0x5008, false, 1, [&](Cycle c) { b = c; });
    eq.drain();
    EXPECT_EQ(l1s[0]->misses(), 2u);
    EXPECT_EQ(l2->demandMisses(), 1u); // one L2 request
    EXPECT_EQ(a, b);
}

TEST_F(L1CacheTest, CanAcceptHonorsMshrLimit)
{
    build();
    // Issue 16 distinct-line misses; the 17th is refused.
    for (std::uint64_t i = 0; i < 16; ++i) {
        ASSERT_TRUE(l1s[0]->canAccept(la(i * 4)));
        l1s[0]->access(la(i * 4), false, 0, [](Cycle) {});
    }
    EXPECT_FALSE(l1s[0]->canAccept(la(999)));
    // Same-line accesses still coalesce.
    EXPECT_TRUE(l1s[0]->canAccept(la(0)));
    eq.drain();
    EXPECT_TRUE(l1s[0]->canAccept(la(999)));
}

TEST_F(L1CacheTest, FullMshrFileCoalescesAndRefillsMiddleEntry)
{
    build();
    // Core 1 brings line 28 into the L2, so core 0's miss on it is an
    // L2 hit that returns long before the fifteen memory misses issued
    // around it: the entry that frees first sits mid-file.
    run(1, la(7 * 4), false, 0);
    const Cycle t0 = 100000;
    std::vector<Cycle> done(16, 0);
    for (std::uint64_t i = 0; i < 16; ++i) {
        ASSERT_TRUE(l1s[0]->canAccept(la(i * 4)));
        l1s[0]->access(la(i * 4), false, t0,
                       [&done, i](Cycle c) { done[i] = c; });
    }
    EXPECT_EQ(l1s[0]->outstanding(), 16u);
    EXPECT_FALSE(l1s[0]->canAccept(la(999)));

    // At the limit, another word of a busy line still coalesces.
    ASSERT_TRUE(l1s[0]->canAccept(la(9 * 4) + 8));
    Cycle coalesced = 0;
    l1s[0]->access(la(9 * 4) + 8, false, t0 + 1,
                   [&](Cycle c) { coalesced = c; });
    EXPECT_EQ(l1s[0]->outstanding(), 16u);

    eq.drain(t0 + 200);
    for (std::uint64_t i = 0; i < 16; ++i) {
        if (i == 7)
            EXPECT_GT(done[i], t0);
        else
            EXPECT_EQ(done[i], 0u) << i;
    }
    EXPECT_EQ(l1s[0]->outstanding(), 15u);

    // The freed middle entry takes a new line; the rest are untouched.
    ASSERT_TRUE(l1s[0]->canAccept(la(999)));
    Cycle late = 0;
    l1s[0]->access(la(999), false, eq.now(), [&](Cycle c) { late = c; });
    EXPECT_EQ(l1s[0]->outstanding(), 16u);
    EXPECT_FALSE(l1s[0]->canAccept(la(1003)));

    eq.drain();
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_GT(done[i], t0 + (i == 7 ? 0 : 200)) << i;
    EXPECT_EQ(coalesced, done[9]);
    EXPECT_GT(late, t0);
    EXPECT_EQ(l1s[0]->outstanding(), 0u);
    EXPECT_EQ(l1s[0]->misses(), 18u);
}

TEST_F(L1CacheTest, PrefetchHeadroomAtMshrLimit)
{
    build();
    for (std::uint64_t i = 0; i < 13; ++i)
        l1s[0]->access(la(i * 4), false, 0, [](Cycle) {});
    // 13 busy + 2 reserved for demand < 16: the prefetch is issued.
    l1s[0]->prefetchLine(la(101), 0);
    EXPECT_EQ(l1s[0]->prefetchesIssued(), 1u);
    EXPECT_EQ(l1s[0]->outstanding(), 14u);
    // 14 busy: the next prefetch would eat the demand reserve.
    l1s[0]->prefetchLine(la(104), 0);
    EXPECT_EQ(l1s[0]->prefetchesIssued(), 1u);
    EXPECT_EQ(l1s[0]->outstanding(), 14u);
    // Demand misses may use the reserve up to the full 16.
    for (std::uint64_t i = 50; i < 52; ++i) {
        ASSERT_TRUE(l1s[0]->canAccept(la(i * 4)));
        l1s[0]->access(la(i * 4), false, 0, [](Cycle) {});
    }
    EXPECT_EQ(l1s[0]->outstanding(), 16u);
    EXPECT_FALSE(l1s[0]->canAccept(la(300)));
    // A demand access to the prefetched line joins its entry.
    ASSERT_TRUE(l1s[0]->canAccept(la(101)));
    Cycle at = 0;
    l1s[0]->access(la(101), false, 1, [&](Cycle c) { at = c; });
    EXPECT_EQ(l1s[0]->outstanding(), 16u);
    eq.drain();
    EXPECT_GT(at, 0u);
    EXPECT_EQ(l1s[0]->outstanding(), 0u);
    // Demand-joined, the fill is not a prefetch: no prefetch bit.
    const TagEntry *e = l1s[0]->setAt(1).find(la(101));
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->prefetch);
}

TEST_F(L1CacheTest, PrefetchFillSetsBitAndFirstUseClears)
{
    build();
    l1s[0]->prefetchLine(la(0), 0);
    eq.drain();
    const TagEntry *e = l1s[0]->setAt(0).find(la(0));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->prefetch);
    EXPECT_EQ(l1s[0]->prefetchesIssued(), 1u);

    run(0, la(0), false, 50000);
    EXPECT_EQ(l1s[0]->prefetchHits(), 1u);
    EXPECT_FALSE(l1s[0]->setAt(0).find(la(0))->prefetch);
    EXPECT_EQ(l1s[0]->hits(), 1u); // prefetch made it a hit
}

TEST_F(L1CacheTest, PrefetcherTrainedByDemandMisses)
{
    build(64);
    PrefetcherParams pp;
    pp.startup_prefetches = 6;
    StridePrefetcher pf(pp);
    l1s[0]->setPrefetcher(&pf);
    for (std::uint64_t i = 0; i < 4; ++i)
        run(0, la(100 + i), false, i * 10000);
    eq.drain();
    EXPECT_EQ(pf.streamsAllocated(), 1u);
    EXPECT_EQ(l1s[0]->prefetchesIssued(), 6u);
    // Lines 104..109 now hit in the L1.
    const Cycle t0 = 1000000;
    EXPECT_EQ(run(0, la(104), false, t0), t0 + 3);
}

TEST_F(L1CacheTest, PrefetchSquashedWhenPresent)
{
    build();
    run(0, la(0), false, 0);
    l1s[0]->prefetchLine(la(0), 10000);
    eq.drain();
    EXPECT_EQ(l1s[0]->prefetchesIssued(), 0u);
}

TEST_F(L1CacheTest, PrefetchDroppedWhenMshrsNearlyFull)
{
    build();
    for (std::uint64_t i = 0; i < 14; ++i)
        l1s[0]->access(la(i * 4), false, 0, [](Cycle) {});
    l1s[0]->prefetchLine(la(100), 0);
    eq.drain();
    EXPECT_EQ(l1s[0]->prefetchesIssued(), 0u);
}

TEST_F(L1CacheTest, AdaptiveVictimTagsDetectHarmfulPrefetch)
{
    build(4, /*victim_tags=*/4);
    AdaptivePrefetchController ctl(6, true);
    l1s[0]->setAdaptiveController(&ctl);
    // Resident line la(0), then 4 prefetches evict it.
    run(0, la(0), false, 0);
    for (std::uint64_t i = 1; i <= 4; ++i) {
        l1s[0]->prefetchLine(la(i * 4), 10000 * i);
        eq.drain();
    }
    EXPECT_EQ(l1s[0]->setAt(0).find(la(0)), nullptr);
    // Demand miss on la(0): victim tag + resident prefetched lines.
    run(0, la(0), false, 100000);
    EXPECT_EQ(ctl.harmfulCount(), 1u);
    EXPECT_EQ(l1s[0]->misses(), 2u);
}

TEST_F(L1CacheTest, UselessPrefetchEvictionDecrements)
{
    build(4);
    AdaptivePrefetchController ctl(6, true);
    l1s[0]->setAdaptiveController(&ctl);
    l1s[0]->prefetchLine(la(0), 0);
    eq.drain();
    for (std::uint64_t i = 1; i <= 4; ++i)
        run(0, la(i * 4), false, 10000 * i);
    EXPECT_EQ(ctl.uselessCount(), 1u);
    EXPECT_EQ(ctl.allowedStartup(), 5u);
}

TEST_F(L1CacheTest, FunctionalWarmupPopulatesBothLevels)
{
    build();
    EXPECT_FALSE(l1s[0]->accessFunctional(0x7000, false));
    EXPECT_TRUE(l1s[0]->accessFunctional(0x7000, false));
    EXPECT_NE(l2->setAt(l2->setIndexOf(lineAddr(0x7000)))
                  .find(lineAddr(0x7000)),
              nullptr);
    EXPECT_EQ(mem->link().totalBytes(), 0u);
    EXPECT_EQ(l2->onchip().totalBytes(), 0u);
}

TEST_F(L1CacheTest, FunctionalWriteTracksCoherence)
{
    build();
    l1s[0]->accessFunctional(0x8000, false);
    l1s[1]->accessFunctional(0x8000, true);
    // cpu0's copy was invalidated functionally.
    EXPECT_EQ(l1s[0]->setAt(
        static_cast<unsigned>(lineNumber(0x8000) % 4)).find(
            lineAddr(0x8000)), nullptr);
    const TagEntry *e =
        l2->setAt(l2->setIndexOf(lineAddr(0x8000))).find(
            lineAddr(0x8000));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->owner, 1);
}

TEST_F(L1CacheTest, DecompressionAvoidanceTracked)
{
    // Compressed L2: prefetch a compressed line into L1, then use it.
    MemoryParams mp;
    mem = std::make_unique<MainMemory>(eq, values, mp);
    L2Params p2;
    p2.sets = 64;
    p2.banks = 2;
    p2.cores = 2;
    p2.compressed = true;
    p2.segment_budget = 32;
    l2 = std::make_unique<L2Cache>(eq, values, *mem, p2);
    L1Params p1;
    p1.sets = 4;
    l1s.push_back(std::make_unique<L1Cache>(eq, *l2, 0, p1));

    // Line 0 is all zeros: compressed in L2 after the first demand
    // fetch (via cpu-less direct request) — use prefetch then use.
    Cycle done = 0;
    l2->request(0, la(0), false, ReqType::Demand, 0,
                [&](Cycle c, bool, bool) { done = c; });
    eq.drain();
    ASSERT_GT(done, 0u);
    l1s[0]->prefetchLine(la(0), done + 100);
    eq.drain();
    run(0, la(0), false, done + 50000);
    EXPECT_EQ(l1s[0]->decompAvoided(), 1u);
}

} // namespace
} // namespace cmpsim
