#include "src/prefetch/stride_prefetcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

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
 * Reference model for the differential test: the array-of-structs
 * prefetcher the per-field filter tables replaced, kept verbatim apart
 * from its name and the fixed kFilterEntries table size. Its filter
 * tables are scanned linearly: a match is the first valid entry whose
 * last line plus stride is the miss, and allocation takes the first
 * invalid entry, else the entry with the smallest LRU stamp.
 */
class ReferencePrefetcher
{
  public:
    using Prefetches = StridePrefetcher::Prefetches;

    explicit ReferencePrefetcher(const PrefetcherParams &params)
        : params_(params), pos_unit_(kFilterEntries),
          neg_unit_(kFilterEntries), non_unit_(kFilterEntries),
          streams_(params.stream_entries)
    {
    }

    Prefetches
    observeMiss(Addr line_addr, unsigned startup_limit)
    {
        ++tick_;
        const auto line = static_cast<std::int64_t>(lineNumber(line_addr));

        if (StreamEntry *s = findStream(line))
            return advanceStream(*s, line, startup_limit);

        if (FilterEntry *e = matchFilter(pos_unit_, line, +1)) {
            e->last_line = line;
            e->lru = tick_;
            if (++e->count >= params_.train_count) {
                e->valid = false;
                return startup_limit ? allocStream(line, +1, startup_limit)
                                     : Prefetches{};
            }
            return {};
        }

        if (FilterEntry *e = matchFilter(neg_unit_, line, -1)) {
            e->last_line = line;
            e->lru = tick_;
            if (++e->count >= params_.train_count) {
                e->valid = false;
                return startup_limit ? allocStream(line, -1, startup_limit)
                                     : Prefetches{};
            }
            return {};
        }

        if (FilterEntry *e = matchFilter(non_unit_, line, 0)) {
            e->last_line = line;
            e->lru = tick_;
            if (++e->count >= params_.train_count) {
                const std::int64_t stride = e->stride;
                e->valid = false;
                return startup_limit
                           ? allocStream(line, stride, startup_limit)
                           : Prefetches{};
            }
            return {};
        }

        allocFilter(pos_unit_, line, +1, 1);
        allocFilter(neg_unit_, line, -1, 1);
        for (std::size_t i = 0; i < recent_misses_.size(); ++i) {
            const std::int64_t d = line - recent_misses_[i];
            if (d != 0 && std::abs(d) > 1 &&
                std::abs(d) <= params_.max_stride) {
                allocFilter(non_unit_, line, d, 2);
                break;
            }
        }
        recent_misses_.push_back(line);
        if (recent_misses_.size() > kRecentMissWindow)
            recent_misses_.pop_front();
        return {};
    }

    Prefetches
    observeUse(Addr line_addr, unsigned startup_limit)
    {
        ++tick_;
        const auto line = static_cast<std::int64_t>(lineNumber(line_addr));
        if (StreamEntry *s = findStream(line))
            return advanceStream(*s, line, startup_limit);
        return {};
    }

    void
    registerStats(StatRegistry &reg, const std::string &prefix)
    {
        reg.registerCounter(prefix + ".streams", &streams_alloc_);
        reg.registerCounter(prefix + ".generated", &generated_);
        reg.registerCounter(prefix + ".filter_allocs", &filter_allocs_);
        reg.registerCounter(prefix + ".advances", &stream_advances_);
    }

    void
    clear()
    {
        for (auto &e : pos_unit_)
            e.valid = false;
        for (auto &e : neg_unit_)
            e.valid = false;
        for (auto &e : non_unit_)
            e.valid = false;
        for (auto &s : streams_)
            s.valid = false;
        recent_misses_.clear();
    }

  private:
    static constexpr unsigned kRecentMissWindow = 8;

    struct FilterEntry
    {
        std::int64_t last_line = 0;
        std::int64_t stride = 0; // +1 / -1 / non-unit
        unsigned count = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    struct StreamEntry
    {
        std::int64_t next_pf = 0;      // next line to prefetch
        std::int64_t stride = 0;
        std::int64_t last_demand = 0;  // stream head (demand side)
        std::uint64_t lru = 0;
        bool valid = false;
    };

    using FilterTable = std::vector<FilterEntry>;

    FilterEntry *
    matchFilter(FilterTable &table, std::int64_t line, std::int64_t stride)
    {
        for (auto &e : table) {
            const std::int64_t s = stride != 0 ? stride : e.stride;
            if (e.valid && s != 0 && e.last_line + s == line)
                return &e;
        }
        return nullptr;
    }

    void
    allocFilter(FilterTable &table, std::int64_t line, std::int64_t stride,
                unsigned count)
    {
        ++filter_allocs_;
        FilterEntry *victim = &table[0];
        for (auto &e : table) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lru < victim->lru)
                victim = &e;
        }
        victim->valid = true;
        victim->last_line = line;
        victim->stride = stride;
        victim->count = count;
        victim->lru = tick_;
    }

    bool
    samePage(std::int64_t a, std::int64_t b) const
    {
        if (params_.page_lines == 0)
            return true;
        return static_cast<std::uint64_t>(a) / params_.page_lines ==
               static_cast<std::uint64_t>(b) / params_.page_lines;
    }

    Prefetches
    allocStream(std::int64_t line, std::int64_t stride,
                unsigned startup_limit)
    {
        const unsigned n =
            std::min(params_.startup_prefetches, startup_limit);
        if (n == 0)
            return {};

        StreamEntry *victim = &streams_[0];
        for (auto &s : streams_) {
            if (!s.valid) {
                victim = &s;
                break;
            }
            if (s.lru < victim->lru)
                victim = &s;
        }

        ++streams_alloc_;
        victim->valid = true;
        victim->stride = stride;
        victim->lru = tick_;

        Prefetches out;
        for (unsigned i = 1; i <= n; ++i) {
            const std::int64_t l = line + stride * static_cast<int>(i);
            if (l < 0 || !samePage(line, l))
                break;
            out.push_back(static_cast<Addr>(l) << kLineShift);
        }
        generated_ += out.size();

        victim->last_demand = line;
        victim->next_pf = line + stride * static_cast<int>(n) + stride;
        return out;
    }

    StreamEntry *
    findStream(std::int64_t line)
    {
        for (auto &s : streams_) {
            if (s.valid && StridePrefetcher::streamCovers(
                               s.last_demand, s.next_pf, s.stride, line))
                return &s;
        }
        return nullptr;
    }

    Prefetches
    advanceStream(StreamEntry &stream, std::int64_t line,
                  unsigned startup_limit)
    {
        stream.lru = tick_;
        if ((line - stream.last_demand) * (stream.stride > 0 ? 1 : -1) > 0)
            stream.last_demand = line;
        if (startup_limit == 0)
            return {};
        if (stream.next_pf < 0) {
            stream.valid = false;
            return {};
        }
        ++stream_advances_;
        Prefetches out;
        const std::int64_t ahead =
            (stream.next_pf - stream.last_demand) / stream.stride;
        if (ahead <= static_cast<std::int64_t>(startup_limit) &&
            samePage(stream.last_demand, stream.next_pf)) {
            ++generated_;
            out.push_back(static_cast<Addr>(stream.next_pf) << kLineShift);
            stream.next_pf += stream.stride;
        }
        return out;
    }

    PrefetcherParams params_;
    FilterTable pos_unit_;
    FilterTable neg_unit_;
    FilterTable non_unit_;
    std::vector<StreamEntry> streams_;
    RingQueue<std::int64_t> recent_misses_;
    std::uint64_t tick_ = 0;

    Counter streams_alloc_;
    Counter generated_;
    Counter filter_allocs_;
    Counter stream_advances_;
};

/** The four counters both prefetchers register, by name. */
std::vector<std::uint64_t>
prefetcherCounters(const StatRegistry &reg)
{
    std::vector<std::uint64_t> out;
    for (const char *name : {"pf.streams", "pf.generated",
                             "pf.filter_allocs", "pf.advances"})
        out.push_back(reg.counter(name));
    return out;
}

/** True when two valid entries of @p t expect the same next line. */
bool
hasDuplicateNext(const StridePrefetcher::FilterTable &t)
{
    for (unsigned i = 0; i < kFilterEntries; ++i) {
        for (unsigned j = i + 1; j < kFilterEntries; ++j) {
            if (t.next[i] != StridePrefetcher::FilterTable::kInvalidNext &&
                t.next[i] == t.next[j])
                return true;
        }
    }
    return false;
}

/**
 * A random miss/use/clear() sequence through the per-field filter
 * tables and the reference model must give the same prefetches and
 * counters after every call. The mix covers +1/-1 runs, non-unit
 * strides up to and past max_stride, the same line missed twice (two
 * entries then expect one line, and the lower index must train),
 * scattered lines that fill all 32 entries of a table and force LRU
 * eviction, startup limits of 0, partial and full, and pages of 0 and
 * 128 lines.
 */
TEST(StridePrefetcherTest, FilterTablesMatchArrayOfStructsReference)
{
    unsigned full_table_allocs = 0;
    unsigned duplicate_states = 0;
    unsigned bursts = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        PrefetcherParams params;
        params.startup_prefetches = seed % 2 ? 25 : 6;
        params.page_lines = seed % 3 == 0 ? 0 : 128;
        params.max_stride = seed <= 4 ? 32 : 8;
        params.train_count = seed == 6 ? 3 : 4;
        StridePrefetcher pf(params);
        ReferencePrefetcher ref(params);
        StatRegistry pf_stats;
        StatRegistry ref_stats;
        pf.registerStats(pf_stats, "pf");
        ref.registerStats(ref_stats, "pf");

        Random rng(seed);
        const std::int64_t max_stride = params.max_stride;
        const std::int64_t strides[] = {
            1, -1, 2, -3, max_stride, -max_stride, max_stride + 1,
            -(max_stride + 1)};
        struct Run
        {
            std::int64_t line;
            std::int64_t stride;
        };
        Run runs[4];
        auto restart = [&](Run &r) {
            r.line = 4096 + static_cast<std::int64_t>(rng.below(1u << 20));
            r.stride = strides[rng.below(std::size(strides))];
        };
        for (Run &r : runs)
            restart(r);
        std::int64_t last_miss = 5000;

        for (unsigned step = 0; step < 6000; ++step) {
            const unsigned pick = static_cast<unsigned>(rng.below(3));
            const unsigned limit =
                pick == 0 ? 0
                : pick == 1
                    ? static_cast<unsigned>(
                          rng.inRange(1, params.startup_prefetches - 1))
                    : params.startup_prefetches;
            const unsigned op = static_cast<unsigned>(rng.below(100));
            std::int64_t line;
            bool use = false;
            if (op == 0) {
                pf.clear();
                ref.clear();
                continue;
            } else if (op < 45) {
                // Continue a run, now and then from a fresh start.
                Run &r = runs[rng.below(std::size(runs))];
                if (rng.below(40) == 0)
                    restart(r);
                r.line = std::max<std::int64_t>(r.line + r.stride, 0);
                line = r.line;
            } else if (op < 55) {
                line = last_miss; // the same line missed twice
            } else if (op < 70) {
                // Scattered: no entry expects it, so tables fill up.
                line = static_cast<std::int64_t>(rng.below(1u << 30));
            } else if (op < 80) {
                // Near the last miss: pairs for the non-unit table.
                line = std::max<std::int64_t>(
                    last_miss + static_cast<std::int64_t>(
                                    rng.below(4 * max_stride + 1)) -
                        2 * max_stride,
                    0);
            } else {
                // A use just ahead of a run: advances its stream.
                const Run &r = runs[rng.below(std::size(runs))];
                line = std::max<std::int64_t>(
                    r.line + r.stride * static_cast<std::int64_t>(
                                            rng.inRange(1, 8)),
                    0);
                use = true;
            }
            if (!use) {
                last_miss = line;
                full_table_allocs +=
                    pf.filterForTest(StridePrefetcher::kPosUnit).invalid ==
                    0;
            }
            const Addr addr = static_cast<Addr>(line) << kLineShift;
            const auto got = use ? pf.observeUse(addr, limit)
                                 : pf.observeMiss(addr, limit);
            const auto want = use ? ref.observeUse(addr, limit)
                                  : ref.observeMiss(addr, limit);
            bursts += got.size() > 1;
            ASSERT_EQ(std::vector<Addr>(got.begin(), got.end()),
                      std::vector<Addr>(want.begin(), want.end()))
                << "seed " << seed << " step " << step << " line " << line
                << (use ? " use" : " miss") << " limit " << limit;
            ASSERT_EQ(prefetcherCounters(pf_stats),
                      prefetcherCounters(ref_stats))
                << "seed " << seed << " step " << step;
            std::string why;
            ASSERT_TRUE(pf.auditFilters(why)) << why;
            for (unsigned t = 0; t < 3; ++t)
                duplicate_states += hasDuplicateNext(pf.filterForTest(t));
        }
    }
    // The mix reached the paths it is meant to cover.
    EXPECT_GT(full_table_allocs, 1000u);
    EXPECT_GT(duplicate_states, 1000u);
    EXPECT_GT(bursts, 100u);
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
