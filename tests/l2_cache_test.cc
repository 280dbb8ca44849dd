#include "src/cache/l2_cache.h"

#include <gtest/gtest.h>

#include "src/compression/fpc.h"

namespace cmpsim {
namespace {

/** Small, single-bank L2 over a real memory model. */
class L2CacheTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    FpcCompressor fpc;
    ValueStore values{fpc};
    MemoryParams mem_params;
    MainMemory *mem = nullptr;
    L2Cache *l2 = nullptr;

    void
    build(bool compressed, bool link_compression = false,
          unsigned extra_victim_tags = 0)
    {
        mem_params.dram_latency = 400;
        mem_params.link_bytes_per_cycle = 4.0;
        mem_params.link_compression = link_compression;
        mem = new MainMemory(eq, values, mem_params);

        L2Params p;
        p.sets = 4;
        p.banks = 1;
        p.tags_per_set = 8 + extra_victim_tags;
        p.segment_budget = compressed ? 32 : 64;
        p.compressed = compressed;
        p.cores = 2;
        l2 = new L2Cache(eq, values, *mem, p);
    }

    void
    TearDown() override
    {
        delete l2;
        delete mem;
    }

    /** Address of line index i mapping to set (i % 4). */
    Addr
    la(std::uint64_t i)
    {
        return i << kLineShift;
    }

    /** Make the line at addr incompressible. */
    void
    makeRaw(Addr addr)
    {
        LineData d{};
        for (unsigned w = 0; w < kWordsPerLine; ++w)
            setLineWord(d, w, 0x9e3779b9u * (w + 7) ^ 0xdeadbeefu);
        values.setLine(addr, d);
    }

    /** Issue a request and run to completion; returns response cycle. */
    Cycle
    run(unsigned cpu, Addr line, bool excl, ReqType type, Cycle when)
    {
        Cycle at = 0;
        l2->request(cpu, line, excl, type, when,
                    [&](Cycle c, bool, bool) { at = c; });
        eq.drain();
        return at;
    }
};

TEST_F(L2CacheTest, MissGoesToMemoryThenHit)
{
    build(false);
    const Cycle first = run(0, la(0), false, ReqType::Demand, 0);
    EXPECT_GT(first, mem_params.dram_latency);
    EXPECT_EQ(l2->demandMisses(), 1u);
    EXPECT_EQ(mem->reads(), 1u);

    const Cycle second = run(0, la(0), false, ReqType::Demand, first);
    EXPECT_EQ(l2->demandHits(), 1u);
    // Hit latency: onchip (ceil 8/64 + 2 hops) + 15 lookup + data.
    EXPECT_LT(second - first, 30u);
    EXPECT_EQ(mem->reads(), 1u);
}

TEST_F(L2CacheTest, CompressedHitPaysDecompressionPenalty)
{
    build(true);
    // Zero line: compresses to 1 segment.
    run(0, la(0), false, ReqType::Demand, 0);
    // Incompressible line in another set.
    makeRaw(la(1));
    run(0, la(1), false, ReqType::Demand, 5000);

    const Cycle t0 = 10000;
    const Cycle hit_comp = run(0, la(0), false, ReqType::Demand, t0);
    const Cycle hit_raw = run(0, la(1), false, ReqType::Demand, t0 + 1000);
    EXPECT_EQ(hit_comp - t0, hit_raw - (t0 + 1000) + 5);
    EXPECT_EQ(l2->penalizedHits(), 1u);
}

TEST_F(L2CacheTest, MshrCoalescesConcurrentMisses)
{
    build(false);
    Cycle a = 0, b = 0;
    l2->request(0, la(0), false, ReqType::Demand, 0,
                [&](Cycle c, bool, bool) { a = c; });
    l2->request(1, la(0), false, ReqType::Demand, 1,
                [&](Cycle c, bool, bool) { b = c; });
    eq.drain();
    EXPECT_EQ(mem->reads(), 1u); // one fetch serves both
    EXPECT_GT(a, 0u);
    EXPECT_GE(b, a); // granted in order
    EXPECT_EQ(l2->demandMisses(), 2u);
}

TEST_F(L2CacheTest, CompressedCacheHoldsMoreLines)
{
    build(true);
    // All-zero lines: 1 segment each; 8 lines fit in one set
    // (tag-limited), where only 4 uncompressed lines would.
    for (std::uint64_t i = 0; i < 8; ++i)
        run(0, la(i * 4), false, ReqType::Demand, i * 1000);
    EXPECT_EQ(l2->setAt(0).validCount(), 8u);
    EXPECT_EQ(l2->demandMisses(), 8u);
    // All still hit.
    for (std::uint64_t i = 0; i < 8; ++i)
        run(0, la(i * 4), false, ReqType::Demand, 100000 + i * 1000);
    EXPECT_EQ(l2->demandHits(), 8u);
}

TEST_F(L2CacheTest, IncompressibleLinesLimitedToFourWays)
{
    build(true);
    for (std::uint64_t i = 0; i < 5; ++i)
        makeRaw(la(i * 4));
    for (std::uint64_t i = 0; i < 5; ++i)
        run(0, la(i * 4), false, ReqType::Demand, i * 1000);
    EXPECT_EQ(l2->setAt(0).validCount(), 4u);
}

TEST_F(L2CacheTest, EvictionInvalidatesL1Copies)
{
    build(false);
    std::vector<std::pair<unsigned, Addr>> invalidated;
    l2->setL1Invalidator([&](unsigned cpu, Addr line) {
        invalidated.emplace_back(cpu, line);
        return false;
    });
    // Fill set 0 beyond capacity (8 ways): 9 lines, same set.
    for (std::uint64_t i = 0; i < 9; ++i)
        run(0, la(i * 4), false, ReqType::Demand, i * 1000);
    ASSERT_EQ(invalidated.size(), 1u);
    EXPECT_EQ(invalidated[0].first, 0u);
    EXPECT_EQ(invalidated[0].second, la(0));
}

TEST_F(L2CacheTest, DirtyEvictionWritesBackToMemory)
{
    build(false);
    // cpu0 takes line 0 exclusive (will be dirty in L1); the L1
    // invalidator reports dirty on retrieval.
    l2->setL1Invalidator([](unsigned, Addr) { return true; });
    run(0, la(0), true, ReqType::Demand, 0);
    const auto wb_before = mem->writebacks();
    for (std::uint64_t i = 1; i < 9; ++i)
        run(0, la(i * 4), false, ReqType::Demand, 1000 * i);
    EXPECT_EQ(mem->writebacks(), wb_before + 1);
}

TEST_F(L2CacheTest, ExclusiveRequestInvalidatesOtherSharers)
{
    build(false);
    unsigned invals = 0;
    l2->setL1Invalidator([&](unsigned, Addr) {
        ++invals;
        return false;
    });
    run(0, la(0), false, ReqType::Demand, 0);
    run(1, la(0), false, ReqType::Demand, 1000);
    // cpu1 now upgrades: cpu0's copy must be invalidated.
    run(1, la(0), true, ReqType::Demand, 2000);
    EXPECT_EQ(invals, 1u);
}

TEST_F(L2CacheTest, SharedRequestDowngradesOwner)
{
    build(false);
    unsigned downgrades = 0;
    l2->setL1Downgrader([&](unsigned cpu, Addr) {
        EXPECT_EQ(cpu, 0u);
        ++downgrades;
    });
    run(0, la(0), true, ReqType::Demand, 0); // cpu0 owns M
    const Cycle plain_start = 50000;
    run(1, la(4), false, ReqType::Demand, 10000); // warm another line
    const Cycle plain =
        run(1, la(4), false, ReqType::Demand, plain_start) - plain_start;
    const Cycle t = 100000;
    const Cycle with_owner = run(1, la(0), false, ReqType::Demand, t) - t;
    EXPECT_EQ(downgrades, 1u);
    // Owner retrieval adds latency over a plain hit.
    EXPECT_GT(with_owner, plain);
}

TEST_F(L2CacheTest, L2PrefetchHitIsSquashed)
{
    build(false);
    run(0, la(0), false, ReqType::Demand, 0);
    l2->request(0, la(0), false, ReqType::L2Prefetch, 1000, nullptr);
    eq.drain();
    EXPECT_EQ(mem->reads(), 1u);
}

TEST_F(L2CacheTest, PrefetcherTrainsAndFillsWithPrefetchBit)
{
    build(false);
    PrefetcherParams pp;
    pp.startup_prefetches = 4;
    StridePrefetcher pf(pp);
    l2->setPrefetcher(0, &pf);
    // 4 sequential demand misses train a stream.
    for (std::uint64_t i = 0; i < 4; ++i)
        run(0, la(100 + i), false, ReqType::Demand, i * 2000);
    eq.drain();
    EXPECT_EQ(pf.streamsAllocated(), 1u);
    EXPECT_EQ(l2->l2PrefetchesIssued(), 4u);
    EXPECT_EQ(l2->prefetchFills(PfSource::L2), 4u);
    // The prefetched line 104 is resident with its bit set.
    const auto &set = l2->setAt(l2->setIndexOf(la(104)));
    const TagEntry *e = set.find(la(104));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->prefetch);
    // First demand touch counts a prefetch hit and clears the bit.
    run(0, la(104), false, ReqType::Demand, 100000);
    EXPECT_EQ(l2->prefetchHits(PfSource::L2), 1u);
    EXPECT_FALSE(set.find(la(104))->prefetch);
}

TEST_F(L2CacheTest, AdaptiveCountsUselessEvictionAndHarmfulMiss)
{
    // The paper's uncompressed-adaptive config: 4 extra tags per set,
    // so victim tags survive even with 8 resident lines.
    build(false, false, /*extra_victim_tags=*/4);
    AdaptivePrefetchController ctl(25, true);
    l2->setAdaptiveController(&ctl);

    // Manually prefetch a line, never touch it, then force eviction.
    l2->request(0, la(0), false, ReqType::L2Prefetch, 0, nullptr);
    eq.drain();
    for (std::uint64_t i = 1; i < 9; ++i)
        run(0, la(i * 4), false, ReqType::Demand, i * 2000);
    EXPECT_EQ(ctl.uselessCount(), 1u);

    // The victim tag for line 0 remains; a demand miss on it while
    // prefetched lines sit in the set flags a harmful prefetch.
    l2->request(0, la(36 * 4), false, ReqType::L2Prefetch, 100000,
                nullptr);
    eq.drain();
    run(0, la(0), false, ReqType::Demand, 200000);
    EXPECT_EQ(ctl.harmfulCount(), 1u);
}

TEST_F(L2CacheTest, WritebackResizeEvictsWhenLineGrows)
{
    build(true);
    // Eight compressible lines fill set 0.
    for (std::uint64_t i = 0; i < 8; ++i)
        run(0, la(i * 4), false, ReqType::Demand, i * 1000);
    ASSERT_EQ(l2->setAt(0).validCount(), 8u);
    // Four lines turn incompressible one after the other; by the
    // fourth resize the 32-segment budget is exhausted and the set
    // must evict.
    for (std::uint64_t i = 0; i < 4; ++i) {
        makeRaw(la(i * 4));
        l2->writeback(0, la(i * 4), 100000 + i * 1000,
                      /*functional=*/false);
        eq.drain();
        EXPECT_EQ(l2->setAt(0).find(la(i * 4))->segments, 8u);
    }
    EXPECT_LT(l2->setAt(0).validCount(), 8u);
    EXPECT_LE(l2->setAt(0).usedSegments(), 32u);
}

TEST_F(L2CacheTest, EffectiveBytesAndRatio)
{
    build(true);
    EXPECT_EQ(l2->dataCapacityBytes(), 4u * 32 * 8);
    for (std::uint64_t i = 0; i < 8; ++i)
        run(0, la(i * 4), false, ReqType::Demand, i * 1000);
    EXPECT_EQ(l2->effectiveBytes(), 8u * kLineBytes);
    EXPECT_DOUBLE_EQ(l2->compressionRatio(), 512.0 / 1024.0);
}

TEST_F(L2CacheTest, FunctionalAccessMatchesTimedState)
{
    build(true);
    l2->accessFunctional(0, la(0), false, ReqType::Demand);
    EXPECT_EQ(l2->demandMisses(), 1u);
    EXPECT_TRUE(l2->accessFunctional(0, la(0), false, ReqType::Demand));
    EXPECT_EQ(l2->demandHits(), 1u);
    const TagEntry *e = l2->setAt(0).find(la(0));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasSharer(0));
}

TEST_F(L2CacheTest, FunctionalModeChargesNoBandwidth)
{
    build(false);
    for (std::uint64_t i = 0; i < 9; ++i)
        l2->accessFunctional(0, la(i * 4), true, ReqType::Demand);
    EXPECT_EQ(mem->link().totalBytes(), 0u);
    EXPECT_EQ(l2->onchip().totalBytes(), 0u);
}

TEST_F(L2CacheTest, PartialHitCountsDemandOnInflightPrefetch)
{
    build(false);
    l2->request(0, la(0), false, ReqType::L2Prefetch, 0, nullptr);
    Cycle done = 0;
    l2->request(0, la(0), false, ReqType::Demand, 5,
                [&](Cycle c, bool, bool) { done = c; });
    eq.drain();
    EXPECT_EQ(mem->reads(), 1u);
    EXPECT_GT(done, 0u);
    // The fill is not marked prefetched (a demand waiter claimed it).
    EXPECT_FALSE(l2->setAt(0).find(la(0))->prefetch);
}

TEST_F(L2CacheTest, LinkCompressionReducesFillTraffic)
{
    build(true, /*link_compression=*/true);
    run(0, la(0), false, ReqType::Demand, 0); // zero line: 1 segment
    // Request header (8) + data header (8) + 1 segment (8).
    EXPECT_EQ(mem->link().totalBytes(), 24u);
}

} // namespace
} // namespace cmpsim
