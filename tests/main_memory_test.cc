#include "src/mem/main_memory.h"

#include <gtest/gtest.h>

#include "src/compression/fpc.h"

namespace cmpsim {
namespace {

class MainMemoryTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    FpcCompressor fpc;
    ValueStore values{fpc};

    MemoryParams
    baseParams()
    {
        MemoryParams p;
        p.dram_latency = 400;
        p.link_bytes_per_cycle = 4.0;
        return p;
    }

    /** Fill a line with incompressible data. */
    void
    makeRaw(Addr addr)
    {
        LineData d{};
        for (unsigned i = 0; i < kWordsPerLine; ++i)
            setLineWord(d, i, 0x9e3779b9u * (i + 3) + 0x85ebca6bu);
        values.setLine(addr, d);
    }
};

TEST_F(MainMemoryTest, UnloadedFetchLatency)
{
    MainMemory mem(eq, values, baseParams());
    StatRegistry reg;
    mem.registerStats(reg, "mem");
    makeRaw(0x1000);
    Cycle done_at = 0;
    mem.fetchLine(0x1000, 100, false, [&](Cycle c) { done_at = c; });
    eq.drain();
    // request: 8B @4B/c = 2 cycles; DRAM 400; data 8+64=72B = 18 cycles.
    EXPECT_EQ(done_at, 100u + 2 + 400 + 18);
    EXPECT_EQ(mem.reads(), 1u);
    EXPECT_EQ(mem.link().totalBytes(), 8u + 72u);
    // 420 cycles lands in the 50-cycle bucket 8.
    EXPECT_DOUBLE_EQ(reg.average("mem.read_latency"), 420.0);
    EXPECT_EQ(reg.histogram("mem.read_latency_hist").bucket(8), 1u);
}

TEST_F(MainMemoryTest, LinkCompressionShrinksDataMessage)
{
    auto p = baseParams();
    p.link_compression = true;
    MainMemory mem(eq, values, p);
    // Untouched line = zeros = 1 segment.
    Cycle done_at = 0;
    mem.fetchLine(0x2000, 0, false, [&](Cycle c) { done_at = c; });
    eq.drain();
    // request 2 cycles; DRAM 400; data 8+8=16B = 4 cycles.
    EXPECT_EQ(done_at, 0u + 2 + 400 + 4);
    EXPECT_EQ(mem.dataFlits(), 1u);
    EXPECT_EQ(mem.headerFlits(), 2u);
}

TEST_F(MainMemoryTest, NoCompressionAlwaysEightDataFlits)
{
    MainMemory mem(eq, values, baseParams());
    mem.fetchLine(0x2000, 0, false, [](Cycle) {});
    eq.drain();
    EXPECT_EQ(mem.dataFlits(), 8u);
}

TEST_F(MainMemoryTest, ContentionQueuesSecondFetch)
{
    MainMemory mem(eq, values, baseParams());
    makeRaw(0x1000);
    makeRaw(0x2000);
    Cycle first = 0, second = 0;
    mem.fetchLine(0x1000, 0, false, [&](Cycle c) { first = c; });
    mem.fetchLine(0x2000, 0, false, [&](Cycle c) { second = c; });
    eq.drain();
    // Second request waits 2 cycles for the link, and its data message
    // queues behind the first data message.
    EXPECT_GT(second, first);
}

TEST_F(MainMemoryTest, InfiniteBandwidthRemovesQueueing)
{
    auto p = baseParams();
    p.infinite_bandwidth = true;
    MainMemory mem(eq, values, p);
    makeRaw(0x1000);
    makeRaw(0x2000);
    Cycle first = 0, second = 0;
    mem.fetchLine(0x1000, 0, false, [&](Cycle c) { first = c; });
    mem.fetchLine(0x2000, 0, false, [&](Cycle c) { second = c; });
    eq.drain();
    EXPECT_EQ(first, second);
    // Demand is still fully accounted.
    EXPECT_EQ(mem.link().totalBytes(), 2u * (8 + 72));
}

TEST_F(MainMemoryTest, WritebackConsumesLinkOnly)
{
    MainMemory mem(eq, values, baseParams());
    makeRaw(0x3000);
    mem.writebackLine(0x3000, 50);
    eq.drain();
    EXPECT_EQ(mem.writebacks(), 1u);
    EXPECT_EQ(mem.link().totalBytes(), 72u);
    // A fetch at the same instant: the writeback (queued first, both
    // ready at 50) occupies the link, delaying the demand request
    // slightly; priorities apply to queued messages, not transfers
    // already in flight.
    Cycle done_at = 0;
    mem.fetchLine(0x3000, 50, false, [&](Cycle c) { done_at = c; });
    eq.drain();
    EXPECT_GE(done_at, 50u + 2 + 400 + 18);
}

TEST_F(MainMemoryTest, CompressedWritebackUsesFewerBytes)
{
    auto p = baseParams();
    p.link_compression = true;
    MainMemory mem(eq, values, p);
    values.writeWord(0x4000, 3); // tiny line: 1 segment
    mem.writebackLine(0x4000, 0);
    EXPECT_EQ(mem.link().totalBytes(), 8u + 8u);
}

TEST_F(MainMemoryTest, ResetStatsZeroesCounters)
{
    MainMemory mem(eq, values, baseParams());
    StatRegistry reg;
    mem.registerStats(reg, "mem");
    mem.fetchLine(0x1000, 0, false, [](Cycle) {});
    eq.drain();
    reg.resetAll();
    mem.resetStats();
    EXPECT_EQ(mem.reads(), 0u);
    EXPECT_EQ(mem.link().totalBytes(), 0u);
}

} // namespace
} // namespace cmpsim
