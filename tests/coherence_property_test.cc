/**
 * @file
 * Property-based coherence and structural invariant checks: drive a
 * multi-core L1/L2 hierarchy with randomized traffic (timed and
 * functional), then assert the MSI/inclusion invariants the protocol
 * must maintain at every quiescent point.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cache/l1_cache.h"
#include "src/common/random.h"
#include "src/compression/fpc.h"

namespace cmpsim {
namespace {

class CoherenceProperty : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static constexpr unsigned kCores = 4;

    EventQueue eq;
    FpcCompressor fpc;
    ValueStore values{fpc};
    std::unique_ptr<MainMemory> mem;
    std::unique_ptr<L2Cache> l2;
    std::vector<std::unique_ptr<L1Cache>> l1s;
    unsigned l2_sets = 32;

    void
    SetUp() override
    {
        MemoryParams mp;
        mem = std::make_unique<MainMemory>(eq, values, mp);
        L2Params p2;
        p2.sets = l2_sets;
        p2.banks = 4;
        p2.cores = kCores;
        p2.compressed = true;
        p2.segment_budget = 32;
        l2 = std::make_unique<L2Cache>(eq, values, *mem, p2);
        L1Params p1;
        p1.sets = 4;
        p1.victim_tags = 2;
        for (unsigned c = 0; c < kCores; ++c)
            l1s.push_back(std::make_unique<L1Cache>(eq, *l2, c, p1));
        l2->setL1Invalidator([this](unsigned cpu, Addr line) {
            return l1s[cpu]->invalidateLine(line);
        });
        l2->setL1Downgrader([this](unsigned cpu, Addr line) {
            l1s[cpu]->downgradeLine(line);
        });
    }

    /** Check every invariant the protocol guarantees at quiescence. */
    void
    checkInvariants()
    {
        // Collect L1 contents.
        struct L1Line
        {
            unsigned cpu;
            bool dirty;
        };
        std::unordered_map<Addr, std::vector<L1Line>> l1_lines;
        for (unsigned c = 0; c < kCores; ++c) {
            for (unsigned s = 0; s < 4; ++s) {
                for (const auto &e : l1s[c]->setAt(s).entries()) {
                    if (e.valid)
                        l1_lines[e.line].push_back({c, e.dirty});
                }
            }
        }

        for (const auto &[line, holders] : l1_lines) {
            // Single-writer: at most one dirty (M) copy, and if one
            // exists it is the only copy.
            unsigned dirty = 0;
            for (const auto &h : holders)
                dirty += h.dirty;
            ASSERT_LE(dirty, 1u) << std::hex << line;
            if (dirty == 1) {
                ASSERT_EQ(holders.size(), 1u) << std::hex << line;
            }

            // Inclusion: the L2 holds every line an L1 holds.
            const TagEntry *e =
                l2->setAt(l2->setIndexOf(line)).find(line);
            ASSERT_NE(e, nullptr) << std::hex << line;

            // Directory agreement.
            for (const auto &h : holders) {
                if (h.dirty) {
                    ASSERT_EQ(e->owner,
                              static_cast<std::int8_t>(h.cpu));
                } else {
                    ASSERT_TRUE(e->hasSharer(h.cpu) ||
                                e->owner ==
                                    static_cast<std::int8_t>(h.cpu))
                        << std::hex << line;
                }
            }
        }

        // L2 structural invariants: segment accounting and budget.
        for (unsigned s = 0; s < l2_sets; ++s) {
            const auto &set = l2->setAt(s);
            unsigned used = 0;
            for (const auto &e : set.entries()) {
                if (e.valid)
                    used += e.segments;
            }
            ASSERT_EQ(used, set.usedSegments());
            ASSERT_LE(used, 32u);
        }
    }
};

TEST_P(CoherenceProperty, RandomTimedTrafficKeepsInvariants)
{
    Random rng(GetParam());
    Cycle when = 0;
    int outstanding = 0;
    for (int i = 0; i < 3000; ++i) {
        const unsigned cpu = static_cast<unsigned>(rng.below(kCores));
        // A small shared space ensures heavy conflict and sharing.
        const Addr addr = rng.below(96) << kLineShift;
        const bool write = rng.chance(0.35);
        if (l1s[cpu]->canAccept(addr)) {
            ++outstanding;
            l1s[cpu]->access(addr, write, when,
                             [&outstanding](Cycle) { --outstanding; });
        }
        when += rng.below(20);
        if (i % 64 == 0) {
            eq.drain();
            when = std::max(when, eq.now());
            checkInvariants();
        }
    }
    eq.drain();
    EXPECT_EQ(outstanding, 0);
    checkInvariants();
}

TEST_P(CoherenceProperty, RandomFunctionalTrafficKeepsInvariants)
{
    Random rng(GetParam() * 31 + 7);
    for (int i = 0; i < 5000; ++i) {
        const unsigned cpu = static_cast<unsigned>(rng.below(kCores));
        const Addr addr = rng.below(96) << kLineShift;
        l1s[cpu]->accessFunctional(addr, rng.chance(0.35));
        if (i % 256 == 0)
            checkInvariants();
    }
    checkInvariants();
    // Functional traffic is free and untimed: the hundreds of dirty L1
    // victims it pushes through L2Cache::writeback() charge neither
    // link, and nothing is left scheduled.
    EXPECT_EQ(mem->link().totalBytes(), 0u);
    EXPECT_EQ(l2->onchip().totalBytes(), 0u);
    EXPECT_EQ(eq.size(), 0u);
}

TEST_P(CoherenceProperty, MixedTimedAndPrefetchTraffic)
{
    PrefetcherParams pp;
    pp.startup_prefetches = 6;
    std::vector<std::unique_ptr<StridePrefetcher>> pfs;
    for (unsigned c = 0; c < kCores; ++c) {
        pfs.push_back(std::make_unique<StridePrefetcher>(pp));
        l1s[c]->setPrefetcher(pfs[c].get());
        l2->setPrefetcher(c, pfs[c].get());
    }
    Random rng(GetParam() * 131 + 3);
    Cycle when = 0;
    for (int i = 0; i < 2000; ++i) {
        const unsigned cpu = static_cast<unsigned>(rng.below(kCores));
        // Mix strided walks (trains the prefetchers) with random.
        const Addr addr = rng.chance(0.5)
                              ? (1000 + static_cast<Addr>(i % 500))
                                    << kLineShift
                              : rng.below(64) << kLineShift;
        if (l1s[cpu]->canAccept(addr))
            l1s[cpu]->access(addr, rng.chance(0.2), when, [](Cycle) {});
        when += rng.below(12);
        if (i % 128 == 0) {
            eq.drain();
            when = std::max(when, eq.now());
            checkInvariants();
        }
    }
    eq.drain();
    checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 21));

} // namespace
} // namespace cmpsim
