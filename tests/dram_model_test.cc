/**
 * @file
 * Banked DRAM backend tests: closed-form latencies for row hit / row
 * miss / bank conflict, FR-FCFS vs FCFS ordering, demand-over-prefetch
 * priority, refresh stalls, write-drain watermarks, compression-
 * shortened bursts, CMPSIM_DRAM parsing/validation, the dram.access
 * fault probe, and same-seed determinism with the backend armed.
 *
 * Timing recap for the closed forms (see DramBackend::service):
 *   row miss:     start + tRCD + tCAS + beats*burst
 *   row hit:      start + tCAS + beats*burst
 *   bank conflict: precharge at max(start, activated + tRAS), then
 *                 tRP + tRCD + tCAS + beats*burst
 * and every read completion adds ctrl_latency.
 */

#include "src/dram/dram_backend.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/audit/invariant_registry.h"
#include "src/common/sim_error.h"
#include "src/core_api/cmp_system.h"
#include "src/dram/dram_params.h"
#include "src/mem/main_memory.h"
#include "src/sim/fault_injection.h"
#include "src/workload/workload_params.h"
#include "tests/env_guard.h"

namespace cmpsim {
namespace {

/** One channel, two banks, refresh off: every latency is closed-form.
 *  64 lines per 4 KB row; tRCD = tCAS = tRP = 60, tRAS = 160; a
 *  16-byte column access holds the bus 16 cycles; +40 controller. */
DramTimingParams
tinyParams()
{
    DramTimingParams p;
    p.backend = DramBackendKind::Banked;
    p.channels = 1;
    p.ranks = 1;
    p.banks = 2;
    p.row_bytes = 4096;
    p.trcd = 60;
    p.tcas = 60;
    p.trp = 60;
    p.tras = 160;
    p.burst_bytes = 16;
    p.burst_cycles = 16;
    p.ctrl_latency = 40;
    p.refresh_interval = 0;
    p.write_high_watermark = 16;
    p.write_low_watermark = 4;
    return p;
}

// tinyParams address map: bank = (line/64) % 2, row = line/128.
constexpr Addr kBank0Row0 = 0x0000; // line 0
constexpr Addr kBank0Row0Col1 = 0x0040; // line 1, same row
constexpr Addr kBank1Row0 = 0x1000; // line 64
constexpr Addr kBank0Row1 = 0x2000; // line 128
constexpr Addr kBank1Row1 = 0x3000; // line 192

class DramBackendTest : public ::testing::Test
{
  protected:
    EventQueue eq;
};

TEST_F(DramBackendTest, DecodeColumnChannelBankRowOrder)
{
    DramTimingParams p = tinyParams();
    p.channels = 2;
    p.banks = 8;
    DramBackend dram(eq, p);
    // line = addr/64; col = line % 64, then channel (2), bank (8), row.
    auto d = dram.decode(0);
    EXPECT_EQ(d.channel, 0u);
    EXPECT_EQ(d.bank, 0u);
    EXPECT_EQ(d.row, 0u);
    EXPECT_EQ(d.column, 0u);
    d = dram.decode(63 * 64); // last line of the row
    EXPECT_EQ(d.column, 63u);
    EXPECT_EQ(d.channel, 0u);
    d = dram.decode(64 * 64); // next 4 KB region: channel rotates
    EXPECT_EQ(d.channel, 1u);
    EXPECT_EQ(d.bank, 0u);
    EXPECT_EQ(d.row, 0u);
    d = dram.decode(128 * 64); // then the bank
    EXPECT_EQ(d.channel, 0u);
    EXPECT_EQ(d.bank, 1u);
    d = dram.decode(1024 * 64); // 16 regions later: row increments
    EXPECT_EQ(d.channel, 0u);
    EXPECT_EQ(d.bank, 0u);
    EXPECT_EQ(d.row, 1u);
}

TEST_F(DramBackendTest, BeatsFollowStoredSegments)
{
    DramBackend dram(eq, tinyParams());
    EXPECT_EQ(dram.beatsFor(8), 4u); // 64 B / 16 B
    EXPECT_EQ(dram.beatsFor(5), 3u); // 40 B -> ceil
    EXPECT_EQ(dram.beatsFor(3), 2u);
    EXPECT_EQ(dram.beatsFor(2), 1u);
    EXPECT_EQ(dram.beatsFor(1), 1u);
}

TEST_F(DramBackendTest, RowMissClosedForm)
{
    DramBackend dram(eq, tinyParams());
    Cycle done = 0;
    dram.read(kBank0Row0, 8, false, 100, [&](Cycle c) { done = c; });
    eq.drain();
    // 100 + tRCD(60) + tCAS(60) + 4*16 + ctrl(40)
    EXPECT_EQ(done, 324u);
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_EQ(dram.rowHits(), 0u);
}

TEST_F(DramBackendTest, RowHitClosedForm)
{
    DramBackend dram(eq, tinyParams());
    Cycle done_b = 0;
    dram.read(kBank0Row0, 8, false, 100, [](Cycle) {});
    dram.read(kBank0Row0Col1, 8, false, 100,
              [&](Cycle c) { done_b = c; });
    eq.drain();
    // A occupies the channel until 284; B then hits the open row:
    // 284 + tCAS(60) + 64 + 40.
    EXPECT_EQ(done_b, 448u);
    EXPECT_EQ(dram.rowHits(), 1u);
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_DOUBLE_EQ(dram.rowHitRate(), 0.5);
}

TEST_F(DramBackendTest, BankConflictClosedForm)
{
    DramBackend dram(eq, tinyParams());
    Cycle done_b = 0;
    dram.read(kBank0Row0, 8, false, 100, [](Cycle) {});
    dram.read(kBank0Row1, 8, false, 100, [&](Cycle c) { done_b = c; });
    eq.drain();
    // B at 284 finds row 0 open: precharge at max(284, 100+160)=284,
    // activate at 344, data at 464..528, +40.
    EXPECT_EQ(done_b, 568u);
    EXPECT_EQ(dram.rowConflicts(), 1u);
}

TEST_F(DramBackendTest, TrasGatesThePrecharge)
{
    DramTimingParams p = tinyParams();
    p.tras = 500;
    DramBackend dram(eq, p);
    Cycle done_b = 0;
    dram.read(kBank0Row0, 8, false, 100, [](Cycle) {});
    dram.read(kBank0Row1, 8, false, 100, [&](Cycle c) { done_b = c; });
    eq.drain();
    // The row activated at 100 may not precharge before 600 even
    // though the channel frees at 284: 600+60+60+60+64+40.
    EXPECT_EQ(done_b, 884u);
}

TEST_F(DramBackendTest, CompressedLineNeedsFewerColumnAccesses)
{
    DramBackend dram(eq, tinyParams());
    Cycle done = 0;
    dram.read(kBank0Row0, 1, false, 100, [&](Cycle c) { done = c; });
    eq.drain();
    // One 16-cycle beat instead of four: 100+120+16+40.
    EXPECT_EQ(done, 276u);
}

TEST_F(DramBackendTest, ClosedPageAutoPrecharges)
{
    DramTimingParams p = tinyParams();
    p.closed_page = true;
    DramBackend dram(eq, p);
    Cycle done_b = 0;
    dram.read(kBank0Row0, 8, false, 100, [](Cycle) {});
    dram.read(kBank0Row0Col1, 8, false, 100,
              [&](Cycle c) { done_b = c; });
    eq.drain();
    // Same row, but the page closed behind A (precharge 284..344):
    // B activates at 344: 344+120+64+40.
    EXPECT_EQ(done_b, 568u);
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_EQ(dram.rowMisses(), 2u);
}

/** Record completion order by label. */
struct OrderLog
{
    std::vector<std::string> order;
    DramBackend::Done
    cb(const std::string &label)
    {
        return [this, label](Cycle) { order.push_back(label); };
    }
};

TEST_F(DramBackendTest, FrFcfsServesRowHitBeforeOlderConflict)
{
    DramBackend dram(eq, tinyParams());
    OrderLog log;
    dram.read(kBank0Row0, 8, false, 100, log.cb("A"));
    dram.read(kBank0Row1, 8, false, 100, log.cb("B")); // older, conflict
    dram.read(kBank0Row0Col1, 8, false, 100, log.cb("C")); // newer, hit
    eq.drain();
    EXPECT_EQ(log.order, (std::vector<std::string>{"A", "C", "B"}));
}

TEST_F(DramBackendTest, FcfsAblationServesArrivalOrder)
{
    DramTimingParams p = tinyParams();
    p.sched = DramSched::Fcfs;
    DramBackend dram(eq, p);
    OrderLog log;
    dram.read(kBank0Row0, 8, false, 100, log.cb("A"));
    dram.read(kBank0Row1, 8, false, 100, log.cb("B"));
    dram.read(kBank0Row0Col1, 8, false, 100, log.cb("C"));
    eq.drain();
    EXPECT_EQ(log.order, (std::vector<std::string>{"A", "B", "C"}));
}

TEST_F(DramBackendTest, DemandOutranksOlderPrefetch)
{
    DramBackend dram(eq, tinyParams());
    OrderLog log;
    dram.read(kBank0Row0, 8, false, 100, log.cb("A"));
    // Neither P nor D can row-hit; the younger demand still wins.
    dram.read(kBank0Row1, 8, true, 100, log.cb("P"));
    dram.read(kBank1Row1, 8, false, 100, log.cb("D"));
    eq.drain();
    EXPECT_EQ(log.order, (std::vector<std::string>{"A", "D", "P"}));
}

TEST_F(DramBackendTest, RefreshStallsAndClosesRows)
{
    DramTimingParams p = tinyParams();
    p.refresh_interval = 1000;
    p.refresh_cycles = 100;
    DramBackend dram(eq, p);
    Cycle done = 0;
    dram.read(kBank0Row0, 8, false, 1500, [&](Cycle c) { done = c; });
    eq.drain();
    // The refresh due at 1000 is charged when work appears at 1500:
    // banks free at 1600, then a row miss: 1600+120+64+40.
    EXPECT_EQ(done, 1824u);
    EXPECT_EQ(dram.refreshes(), 1u);
}

TEST_F(DramBackendTest, IdleRefreshPeriodsAreSkippedNotAccumulated)
{
    DramTimingParams p = tinyParams();
    p.refresh_interval = 1000;
    p.refresh_cycles = 100;
    DramBackend dram(eq, p);
    Cycle done = 0;
    dram.read(kBank0Row0, 8, false, 10500, [&](Cycle c) { done = c; });
    eq.drain();
    // Ten periods elapsed idle; exactly one tRFC is charged.
    EXPECT_EQ(dram.refreshes(), 1u);
    EXPECT_EQ(done, 10500u + 100 + 120 + 64 + 40);
}

TEST_F(DramBackendTest, WriteDrainWatermarkStealsOneReadSlot)
{
    DramTimingParams p = tinyParams();
    p.write_high_watermark = 2;
    p.write_low_watermark = 1;
    DramBackend dram(eq, p);
    Cycle read_done = 0;
    dram.write(kBank0Row0, 8, 100);
    dram.write(kBank1Row0, 8, 100); // hits the high watermark
    dram.read(kBank0Row1, 8, false, 100,
              [&](Cycle c) { read_done = c; });
    eq.drain();
    EXPECT_EQ(dram.writeDrains(), 1u);
    // One write drains (to the low watermark) before the read: the
    // read starts at 284 into a bank-conflict, finishing at 568; the
    // second write goes opportunistically afterwards.
    EXPECT_EQ(read_done, 568u);
    EXPECT_EQ(dram.writesServiced(), 2u);
}

TEST_F(DramBackendTest, IdleChannelDrainsWritesOpportunistically)
{
    DramBackend dram(eq, tinyParams());
    dram.write(kBank0Row0, 8, 100); // far below the watermark
    eq.drain();
    EXPECT_EQ(dram.writesServiced(), 1u);
    EXPECT_EQ(dram.writeDrains(), 0u);
    EXPECT_EQ(dram.queuedWrites(), 0u);
}

TEST_F(DramBackendTest, RequestConservationAuditHolds)
{
    DramBackend dram(eq, tinyParams());
    InvariantRegistry audits;
    dram.registerAudits(audits, "dram");
    for (unsigned i = 0; i < 6; ++i) {
        dram.read(static_cast<Addr>(i) * 0x1000, 8, i % 2 == 0, 100,
                  [](Cycle) {});
        dram.write(static_cast<Addr>(i) * 0x2000, 8, 100);
    }
    // Mid-flight (some serviced, some queued) and at quiesce.
    eq.drain(400);
    EXPECT_TRUE(audits.check().empty());
    eq.drain();
    EXPECT_TRUE(audits.check().empty());
    EXPECT_EQ(dram.readsServiced(), 6u);
    EXPECT_EQ(dram.writesServiced(), 6u);
    // And the balance survives a mid-stream stats reset.
    dram.read(0, 8, false, eq.now(), [](Cycle) {});
    dram.resetStats();
    EXPECT_TRUE(audits.check().empty());
    eq.drain();
    EXPECT_TRUE(audits.check().empty());
}

// ---- MainMemory integration --------------------------------------

class DramMainMemoryTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    FpcCompressor fpc;
    ValueStore values{fpc};

    MemoryParams
    bankedParams()
    {
        MemoryParams p;
        p.link_bytes_per_cycle = 4.0;
        p.dram = tinyParams();
        return p;
    }
};

TEST_F(DramMainMemoryTest, BankedFetchClosedForm)
{
    MainMemory mem(eq, values, bankedParams());
    ASSERT_NE(mem.dram(), nullptr);
    Cycle done = 0;
    mem.fetchLine(0x1000, 100, false, [&](Cycle c) { done = c; });
    eq.drain();
    // request 8 B = 2 cycles; row miss 120 + 4*16 + ctrl 40; data
    // message 72 B = 18 cycles.
    EXPECT_EQ(done, 100u + 2 + 120 + 64 + 40 + 18);
}

TEST_F(DramMainMemoryTest, LinkCompressionShortensBurstAndMessage)
{
    MemoryParams p = bankedParams();
    p.link_compression = true;
    MainMemory mem(eq, values, p);
    Cycle done = 0;
    // Untouched line = zeros = 1 stored segment = 1 column access.
    mem.fetchLine(0x1000, 100, false, [&](Cycle c) { done = c; });
    eq.drain();
    // request 2; miss 120 + 1*16 + 40; data 16 B = 4 cycles.
    EXPECT_EQ(done, 100u + 2 + 120 + 16 + 40 + 4);
}

TEST_F(DramMainMemoryTest, WritebackLandsInControllerWriteQueue)
{
    MainMemory mem(eq, values, bankedParams());
    mem.writebackLine(0x1000, 0);
    eq.drain();
    EXPECT_EQ(mem.dram()->writesServiced(), 1u);
}

TEST_F(DramMainMemoryTest, FixedBackendHasNoDramObject)
{
    MemoryParams p;
    p.link_bytes_per_cycle = 4.0;
    MainMemory mem(eq, values, p);
    EXPECT_EQ(mem.dram(), nullptr);
    StatRegistry reg;
    mem.registerStats(reg, "mem");
    EXPECT_FALSE(reg.hasCounter("mem.dram.row_hits"));
}

TEST_F(DramMainMemoryTest, ReadLatencyHistogramSplitsByBackend)
{
    // Fixed backend: 2 + 400 + 18 = 420 -> 50-cycle bucket 8.
    {
        MemoryParams p;
        p.link_bytes_per_cycle = 4.0;
        MainMemory mem(eq, values, p);
        StatRegistry reg;
        mem.registerStats(reg, "mem");
        mem.fetchLine(0x1000, 100, false, [](Cycle) {});
        eq.drain();
        EXPECT_DOUBLE_EQ(reg.average("mem.read_latency"), 420.0);
        EXPECT_EQ(reg.histogram("mem.read_latency_hist").bucket(8), 1u);
    }
    // Banked backend, unloaded row miss: 244 -> bucket 4.
    {
        MainMemory mem(eq, values, bankedParams());
        StatRegistry reg;
        mem.registerStats(reg, "mem");
        EXPECT_TRUE(reg.hasCounter("mem.dram.row_hits"));
        mem.fetchLine(0x1000, 1000, false, [](Cycle) {});
        eq.drain();
        EXPECT_DOUBLE_EQ(reg.average("mem.read_latency"), 244.0);
        EXPECT_EQ(reg.histogram("mem.read_latency_hist").bucket(4), 1u);
    }
}

// ---- CMPSIM_DRAM spec parsing and validation ---------------------

TEST(DramSpecTest, ParsesBankedWithOptions)
{
    DramTimingParams p;
    parseDramSpec("banked:channels=4,banks=16,row_bytes=8192,"
                  "sched=fcfs,page=closed,tras=200,wq_high=32,wq_low=8",
                  p);
    EXPECT_EQ(p.backend, DramBackendKind::Banked);
    EXPECT_EQ(p.channels, 4u);
    EXPECT_EQ(p.banks, 16u);
    EXPECT_EQ(p.row_bytes, 8192u);
    EXPECT_EQ(p.sched, DramSched::Fcfs);
    EXPECT_TRUE(p.closed_page);
    EXPECT_EQ(p.tras, 200u);
    EXPECT_EQ(p.write_high_watermark, 32u);
    EXPECT_EQ(p.write_low_watermark, 8u);
}

TEST(DramSpecTest, FixedResetsBackendAndEmptyIsNoOp)
{
    DramTimingParams p;
    p.backend = DramBackendKind::Banked;
    parseDramSpec("fixed", p);
    EXPECT_EQ(p.backend, DramBackendKind::Fixed);
    p.backend = DramBackendKind::Banked;
    parseDramSpec("", p);
    EXPECT_EQ(p.backend, DramBackendKind::Banked);
}

TEST(DramSpecTest, MalformedSpecsThrowKnobNamedErrors)
{
    DramTimingParams p;
    EXPECT_THROW(parseDramSpec("bogus", p), ConfigError);
    EXPECT_THROW(parseDramSpec("fixed:banks=2", p), ConfigError);
    EXPECT_THROW(parseDramSpec("banked:banks", p), ConfigError);
    EXPECT_THROW(parseDramSpec("banked:banks=abc", p), ConfigError);
    EXPECT_THROW(parseDramSpec("banked:nope=1", p), ConfigError);
    EXPECT_THROW(parseDramSpec("banked:=3", p), ConfigError);
    EXPECT_THROW(parseDramSpec("banked:page=ajar", p), ConfigError);
    try {
        parseDramSpec("banked:banks=abc", p);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.context(), "env.CMPSIM_DRAM");
    }
}

TEST(DramSpecTest, EnvSpecLandsInMakeConfig)
{
    {
        EnvGuard dram("CMPSIM_DRAM", "banked:channels=1,sched=fcfs");
        const SystemConfig c = makeConfig(2, 8, false, false, false, false);
        EXPECT_EQ(c.dram.backend, DramBackendKind::Banked);
        EXPECT_EQ(c.dram.channels, 1u);
        EXPECT_EQ(c.dram.sched, DramSched::Fcfs);
    }
    // Unset env leaves the paper-validated fixed backend.
    EnvGuard unset("CMPSIM_DRAM", nullptr);
    const SystemConfig c = makeConfig(2, 8, false, false, false, false);
    EXPECT_EQ(c.dram.backend, DramBackendKind::Fixed);
}

/** validate() must throw a ConfigError naming @p knob after @p mutate
 *  is applied to an otherwise-good config. */
template <typename Fn>
void
expectReject(const char *knob, Fn mutate)
{
    SystemConfig c = makeConfig(2, 8, false, false, false, false);
    mutate(c.dram);
    try {
        c.validate();
        FAIL() << "expected ConfigError for " << knob;
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.context(), knob);
    }
}

TEST(DramValidateTest, RejectsImpossibleGeometryAndTiming)
{
    expectReject("config.dram.channels",
                 [](DramTimingParams &d) { d.channels = 0; });
    expectReject("config.dram.ranks",
                 [](DramTimingParams &d) { d.ranks = 0; });
    expectReject("config.dram.banks",
                 [](DramTimingParams &d) { d.banks = 0; });
    expectReject("config.dram.row_bytes",
                 [](DramTimingParams &d) { d.row_bytes = 100; });
    expectReject("config.dram.row_bytes",
                 [](DramTimingParams &d) { d.row_bytes = 32; });
    expectReject("config.dram.burst_bytes",
                 [](DramTimingParams &d) { d.burst_bytes = 0; });
    expectReject("config.dram.burst_cycles",
                 [](DramTimingParams &d) { d.burst_cycles = 0; });
    expectReject("config.dram.timing",
                 [](DramTimingParams &d) { d.trcd = 0; });
    expectReject("config.dram.tras",
                 [](DramTimingParams &d) { d.tras = 100; });
    expectReject("config.dram.wq_high",
                 [](DramTimingParams &d) { d.write_high_watermark = 0; });
    expectReject("config.dram.wq_low", [](DramTimingParams &d) {
        d.write_low_watermark = d.write_high_watermark;
    });
    expectReject("config.dram.refresh", [](DramTimingParams &d) {
        d.refresh_cycles = d.refresh_interval;
    });
    // The knobs are validated even while the backend is Fixed (they
    // must always be arm-able), and a good banked config passes.
    SystemConfig ok = makeConfig(2, 8, false, false, false, false);
    ok.dram.backend = DramBackendKind::Banked;
    EXPECT_NO_THROW(ok.validate());
}

// ---- fault injection ---------------------------------------------

TEST(DramFaultTest, DramAccessProbeThrowsThenRecovers)
{
    EventQueue eq;
    DramBackend dram(eq, tinyParams());
    const FaultPlan plan = FaultPlan::parse("dram.access:2");
    {
        FaultArmGuard arm(plan);
        dram.read(0, 8, false, 0, [](Cycle) {}); // 1st hit: clean
        EXPECT_THROW(dram.read(0x1000, 8, false, 0, [](Cycle) {}),
                     InjectedFault);
        // Past the nth hit the site is quiet again.
        EXPECT_NO_THROW(dram.read(0x2000, 8, false, 0, [](Cycle) {}));
    }
    eq.drain();
}

// ---- whole-system determinism with the backend armed -------------

TEST(DramDeterminismTest, SameSeedSameStatsWithBankedBackend)
{
    auto run = [] {
        SystemConfig c = makeConfig(2, 16, true, true, true, false);
        c.dram.backend = DramBackendKind::Banked;
        CmpSystem sys(c, benchmarkParams("zeus"));
        sys.warmup(20000);
        sys.run(8000);
        std::ostringstream os;
        sys.stats().dump(os);
        return os.str();
    };
    const std::string a = run();
    EXPECT_FALSE(a.empty());
    EXPECT_NE(a.find("mem.dram.row_hits"), std::string::npos);
    EXPECT_EQ(a, run());
}

} // namespace
} // namespace cmpsim
