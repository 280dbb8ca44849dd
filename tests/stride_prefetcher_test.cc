#include "src/prefetch/stride_prefetcher.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/common/random.h"
#include "src/prefetch/adaptive_controller.h"

namespace cmpsim {
namespace {

Addr
la(std::uint64_t line)
{
    return line << kLineShift;
}

PrefetcherParams
l1Params()
{
    PrefetcherParams p;
    p.startup_prefetches = 6;
    return p;
}

PrefetcherParams
l2Params()
{
    PrefetcherParams p;
    p.startup_prefetches = 25;
    return p;
}

TEST(StridePrefetcherTest, NoPrefetchBeforeFourMisses)
{
    StridePrefetcher pf(l1Params());
    EXPECT_TRUE(pf.observeMiss(la(100), 6).empty());
    EXPECT_TRUE(pf.observeMiss(la(101), 6).empty());
    EXPECT_TRUE(pf.observeMiss(la(102), 6).empty());
    EXPECT_EQ(pf.streamsAllocated(), 0u);
}

TEST(StridePrefetcherTest, FourthUnitStrideMissLaunchesStartupBurst)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 103; ++l)
        EXPECT_TRUE(pf.observeMiss(la(l), 6).empty());
    const auto out = pf.observeMiss(la(103), 6);
    ASSERT_EQ(out.size(), 6u);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(out[i], la(104 + i));
    EXPECT_EQ(pf.streamsAllocated(), 1u);
    EXPECT_EQ(pf.prefetchesGenerated(), 6u);
}

TEST(StridePrefetcherTest, NegativeUnitStrideDetected)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 203; l > 200; --l)
        EXPECT_TRUE(pf.observeMiss(la(l), 6).empty());
    const auto out = pf.observeMiss(la(200), 6);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], la(199));
    EXPECT_EQ(out[5], la(194));
}

TEST(StridePrefetcherTest, NonUnitStrideDetected)
{
    StridePrefetcher pf(l1Params());
    // Stride of 3 lines: 100, 103, 106, 109.
    EXPECT_TRUE(pf.observeMiss(la(100), 6).empty());
    EXPECT_TRUE(pf.observeMiss(la(103), 6).empty()); // learns stride 3
    EXPECT_TRUE(pf.observeMiss(la(106), 6).empty()); // count 3
    const auto out = pf.observeMiss(la(109), 6);     // count 4: stream
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], la(112));
    EXPECT_EQ(out[1], la(115));
}

TEST(StridePrefetcherTest, StrideBeyondMaxNotLearned)
{
    PrefetcherParams p = l1Params();
    p.max_stride = 8;
    StridePrefetcher pf(p);
    for (std::uint64_t l = 100; l <= 100 + 16 * 10; l += 16)
        EXPECT_TRUE(pf.observeMiss(la(l), 6).empty());
    EXPECT_EQ(pf.streamsAllocated(), 0u);
}

TEST(StridePrefetcherTest, UseAdvancesStreamOneLine)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 104; ++l)
        pf.observeMiss(la(l), 6);
    // Startup window is 104..109; first use advances to 110.
    const auto out = pf.observeUse(la(104), 6);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], la(110));
    // And the window now includes 110.
    const auto out2 = pf.observeUse(la(110), 6);
    ASSERT_EQ(out2.size(), 1u);
    EXPECT_EQ(out2[0], la(111));
}

TEST(StridePrefetcherTest, UseOutsideAnyStreamIsIgnored)
{
    StridePrefetcher pf(l1Params());
    EXPECT_TRUE(pf.observeUse(la(500), 6).empty());
}

TEST(StridePrefetcherTest, MissInsideWindowKeepsStreamAlive)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 104; ++l)
        pf.observeMiss(la(l), 6);
    // A demand miss at 105 (prefetch evicted): stream advances anyway.
    const auto out = pf.observeMiss(la(105), 6);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], la(110));
}

TEST(StridePrefetcherTest, L2StartupIsTwentyFive)
{
    // Lines 2560..2588 all sit inside one 128-line page.
    StridePrefetcher pf(l2Params());
    for (std::uint64_t l = 2560; l < 2563; ++l)
        pf.observeMiss(la(l), 25);
    EXPECT_EQ(pf.observeMiss(la(2563), 25).size(), 25u);
}

TEST(StridePrefetcherTest, BurstStopsAtPageBoundary)
{
    // Training ends at line 123; page 0 ends at line 127: only 4 of
    // the 25 startup prefetches fit (hardware prefetchers cannot
    // cross a physical page).
    StridePrefetcher pf(l2Params());
    for (std::uint64_t l = 120; l < 123; ++l)
        pf.observeMiss(la(l), 25);
    const auto out = pf.observeMiss(la(123), 25);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.back(), la(127));
    // Advances refuse to cross the boundary too.
    EXPECT_TRUE(pf.observeUse(la(124), 25).empty());
}

TEST(StridePrefetcherTest, StartupLimitThrottlesBurst)
{
    StridePrefetcher pf(l2Params());
    for (std::uint64_t l = 100; l < 103; ++l)
        pf.observeMiss(la(l), 25);
    EXPECT_EQ(pf.observeMiss(la(103), 3).size(), 3u);
}

TEST(StridePrefetcherTest, ZeroLimitDisablesCompletely)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 110; ++l)
        EXPECT_TRUE(pf.observeMiss(la(l), 0).empty());
    EXPECT_EQ(pf.streamsAllocated(), 0u);
    EXPECT_EQ(pf.prefetchesGenerated(), 0u);
}

TEST(StridePrefetcherTest, InterleavedStreamsBothDetected)
{
    StridePrefetcher pf(l1Params());
    unsigned bursts = 0;
    for (std::uint64_t i = 0; i < 4; ++i) {
        bursts += !pf.observeMiss(la(1000 + i), 6).empty();
        bursts += !pf.observeMiss(la(5000 + i * 2), 6).empty();
    }
    EXPECT_EQ(bursts, 2u);
    EXPECT_EQ(pf.streamsAllocated(), 2u);
}

TEST(StridePrefetcherTest, StreamTableEvictsLru)
{
    PrefetcherParams p = l1Params();
    p.stream_entries = 2;
    StridePrefetcher pf(p);
    // Train three streams; the first should be evicted.
    for (std::uint64_t base : {1000u, 2000u, 3000u}) {
        for (std::uint64_t i = 0; i < 4; ++i)
            pf.observeMiss(la(base + i), 6);
    }
    EXPECT_EQ(pf.streamsAllocated(), 3u);
    // Stream 1's window (1004..1009) is gone: use does nothing.
    EXPECT_TRUE(pf.observeUse(la(1004), 6).empty());
    // Stream 3's window is alive.
    EXPECT_FALSE(pf.observeUse(la(3004), 6).empty());
}

TEST(StridePrefetcherTest, NegativeStreamStopsAtLineZero)
{
    StridePrefetcher pf(l1Params());
    pf.observeMiss(la(7), 6);
    pf.observeMiss(la(6), 6);
    pf.observeMiss(la(5), 6);
    const auto out = pf.observeMiss(la(4), 6);
    // Only lines 3,2,1,0 exist below 4.
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(out.back(), la(0));
}

TEST(StridePrefetcherTest, ClearDropsAllState)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 104; ++l)
        pf.observeMiss(la(l), 6);
    pf.clear();
    EXPECT_TRUE(pf.observeUse(la(104), 6).empty());
    // Training starts over.
    EXPECT_TRUE(pf.observeMiss(la(300), 6).empty());
}

TEST(AdaptiveControllerTest, DisabledAlwaysAllowsMax)
{
    AdaptivePrefetchController ctl(25, /*enabled=*/false);
    for (int i = 0; i < 100; ++i)
        ctl.onUselessPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 25u);
    EXPECT_EQ(ctl.uselessCount(), 100u);
}

TEST(AdaptiveControllerTest, UselessAndHarmfulThrottle)
{
    AdaptivePrefetchController ctl(6, true);
    EXPECT_EQ(ctl.allowedStartup(), 6u);
    ctl.onUselessPrefetch();
    ctl.onHarmfulPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 4u);
    for (int i = 0; i < 10; ++i)
        ctl.onUselessPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 0u);
}

TEST(AdaptiveControllerTest, UsefulPrefetchesRecover)
{
    AdaptivePrefetchController ctl(6, true);
    for (int i = 0; i < 6; ++i)
        ctl.onUselessPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 0u);
    ctl.onUsefulPrefetch();
    ctl.onUsefulPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 2u);
    for (int i = 0; i < 100; ++i)
        ctl.onUsefulPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 6u);
}

TEST(AdaptiveControllerTest, ThrottledPrefetcherEndToEnd)
{
    // Counter at 2 limits the startup burst of a fresh stream.
    AdaptivePrefetchController ctl(6, true);
    for (int i = 0; i < 4; ++i)
        ctl.onUselessPrefetch();
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 103; ++l)
        pf.observeMiss(la(l), ctl.allowedStartup());
    EXPECT_EQ(pf.observeMiss(la(103), ctl.allowedStartup()).size(), 2u);
}

/**
 * The stream-window rule in its direct form: @p line is on the stride
 * lattice, a positive number of steps past the demand head, and no
 * more steps out than the prefetch head (truncating division).
 */
bool
referenceCovers(std::int64_t last_demand, std::int64_t next_pf,
                std::int64_t stride, std::int64_t line)
{
    const std::int64_t delta = line - last_demand;
    if (delta == 0 || delta % stride != 0)
        return false;
    const std::int64_t steps = delta / stride;
    const std::int64_t depth = (next_pf - last_demand) / stride;
    return steps > 0 && steps <= depth;
}

TEST(StridePrefetcherTest, StreamWindowMatchesDivisionReference)
{
    constexpr std::int64_t kStrides[] = {1,  -1, 2,  -2, 3,  -3,
                                         5,  -7, 31, -32, 32, -31};
    Random rng(77);
    unsigned covered = 0;
    for (unsigned i = 0; i < 200000; ++i) {
        const std::int64_t stride =
            kStrides[rng.below(sizeof kStrides / sizeof kStrides[0])];
        const std::int64_t mag = std::llabs(stride);
        const std::int64_t last_demand =
            static_cast<std::int64_t>(rng.below(1u << 20)) + (1 << 20);
        // Prefetch heads behind, at and ahead of the demand head, on
        // and off the lattice (a head past a page edge stops early).
        const std::int64_t next_pf =
            last_demand +
            stride * (static_cast<std::int64_t>(rng.below(34)) - 4) +
            static_cast<std::int64_t>(rng.below(2 * mag - 1)) - (mag - 1);
        const std::int64_t line =
            last_demand + static_cast<std::int64_t>(rng.below(80 * mag)) -
            40 * mag;
        const bool want = referenceCovers(last_demand, next_pf, stride, line);
        covered += want;
        ASSERT_EQ(StridePrefetcher::streamCovers(last_demand, next_pf,
                                                 stride, line),
                  want)
            << "last_demand=" << last_demand << " next_pf=" << next_pf
            << " stride=" << stride << " line=" << line;
    }
    // Both outcomes are well represented.
    EXPECT_GT(covered, 10000u);
    EXPECT_LT(covered, 190000u);
}

} // namespace
} // namespace cmpsim
