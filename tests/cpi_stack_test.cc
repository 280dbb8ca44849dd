/**
 * @file
 * CPI-stack / miss-genealogy layer (DESIGN.md Section 9): cycle
 * conservation, default-hash invariance when armed, journey
 * histograms, trace-span emission, and the run report's cpi_stack
 * section from an armed run.
 */

#include "src/obs/cpi_stack.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core_api/cmp_system.h"
#include "src/obs/run_report.h"
#include "src/obs/trace.h"
#include "src/workload/workload_params.h"
#include "tests/env_guard.h"

namespace cmpsim {
namespace {

constexpr std::uint64_t kWarmup = 10000;
constexpr std::uint64_t kMeasure = 6000;

SystemConfig
fullConfig(bool cpi_stack)
{
    SystemConfig cfg = makeConfig(/*cores=*/2, /*scale=*/4,
                                  /*cache_compression=*/true,
                                  /*link_compression=*/true,
                                  /*prefetching=*/true,
                                  /*adaptive=*/true);
    cfg.seed = 7;
    cfg.cpi_stack = cpi_stack;
    return cfg;
}

std::string
registryDump(const StatRegistry &reg)
{
    std::ostringstream os;
    reg.dump(os);
    return os.str();
}

std::string
mainFingerprint(CmpSystem &sys)
{
    std::ostringstream os;
    sys.stats().dump(os);
    os << "cycles " << sys.cycles() << "\n";
    os << "instructions " << sys.instructions() << "\n";
    return os.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(CpiStackTest, AttributedCyclesSumExactlyToElapsed)
{
    CmpSystem sys(fullConfig(true), benchmarkParams("zeus"));
    sys.warmup(kWarmup);
    sys.run(kMeasure);

    ASSERT_GT(sys.cycles(), 0u);
    for (unsigned c = 0; c < sys.config().cores; ++c) {
        const CpiAccount *a = sys.cpiAccount(c);
        ASSERT_NE(a, nullptr);
        // Window accounting spans exactly the measured interval.
        EXPECT_EQ(a->attributed(), sys.cycles()) << "core " << c;
        // And the per-leaf split loses nothing.
        std::string why;
        EXPECT_TRUE(a->conserved(why)) << why;
        std::uint64_t sum = 0;
        for (unsigned l = 0; l < kCpiLeafCount; ++l)
            sum += a->leafCycles(static_cast<CpiLeaf>(l));
        EXPECT_EQ(sum, sys.cycles()) << "core " << c;
    }
    // The wired-in audit agrees.
    EXPECT_TRUE(sys.audits().check().empty());
}

TEST(CpiStackTest, MemoryLeavesActuallyPopulated)
{
    CmpSystem sys(fullConfig(true), benchmarkParams("zeus"));
    sys.warmup(kWarmup);
    sys.run(kMeasure);

    std::uint64_t dram = 0, l2svc = 0, decomp = 0;
    for (unsigned c = 0; c < sys.config().cores; ++c) {
        const CpiAccount *a = sys.cpiAccount(c);
        dram += a->leafCycles(CpiLeaf::DramService);
        l2svc += a->leafCycles(CpiLeaf::L2Service);
        decomp += a->leafCycles(CpiLeaf::Decompression);
    }
    // A compressed config with off-chip misses must show DRAM and L2
    // service time and some decompression exposure.
    EXPECT_GT(dram, 0u);
    EXPECT_GT(l2svc, 0u);
    EXPECT_GT(decomp, 0u);

    const MissJournal *j = sys.missJournal();
    ASSERT_NE(j, nullptr);
    EXPECT_GT(j->recordsCompleted(), 0u);
    EXPECT_GT(sys.cpiStats().histogram("genealogy.journey_cycles")
                  .total(),
              0u);
    EXPECT_GT(sys.cpiStats().counter("genealogy.completed"), 0u);
}

TEST(CpiStackTest, ArmingDoesNotChangeMainStats)
{
    std::string unarmed, armed;
    {
        CmpSystem sys(fullConfig(false), benchmarkParams("apsi"));
        sys.warmup(kWarmup);
        sys.run(kMeasure);
        unarmed = mainFingerprint(sys);
        EXPECT_TRUE(registryDump(sys.cpiStats()).empty());
        EXPECT_EQ(sys.cpiAccount(0), nullptr);
        EXPECT_EQ(sys.missJournal(), nullptr);
    }
    {
        CmpSystem sys(fullConfig(true), benchmarkParams("apsi"));
        sys.warmup(kWarmup);
        sys.run(kMeasure);
        armed = mainFingerprint(sys);
        EXPECT_FALSE(registryDump(sys.cpiStats()).empty());
    }
    // Byte-identical: the layer only observes.
    EXPECT_EQ(unarmed, armed);
}

TEST(CpiStackTest, EnvKnobArmsAndDisarms)
{
    // makeConfig() applies the knob; a field set afterwards wins.
    {
        EnvGuard arm("CMPSIM_CPISTACK", "1");
        EXPECT_TRUE(makeConfig(2, 4, true, true, true, true).cpi_stack);
        CmpSystem sys(fullConfig(false), benchmarkParams("zeus"));
        EXPECT_FALSE(sys.config().cpi_stack);
        EXPECT_EQ(sys.missJournal(), nullptr);
    }
    {
        EnvGuard off("CMPSIM_CPISTACK", "0");
        EXPECT_FALSE(makeConfig(2, 4, true, true, true, true).cpi_stack);
        CmpSystem sys(fullConfig(true), benchmarkParams("zeus"));
        EXPECT_TRUE(sys.config().cpi_stack);
        EXPECT_NE(sys.missJournal(), nullptr);
    }
}

TEST(CpiStackTest, TracedArmedRunEmitsJourneySpans)
{
    const std::string path =
        ::testing::TempDir() + "cmpsim_cpi_trace.json";
    {
        TraceSession session(path);
        ASSERT_TRUE(session.active());
        CmpSystem sys(fullConfig(true), benchmarkParams("zeus"));
        sys.warmup(kWarmup);
        sys.run(kMeasure);
    }
    const std::string text = slurp(path);
    // Async begin/end journey spans with ids, on named per-core
    // journey tracks (Perfetto renders the thread_name metadata).
    EXPECT_NE(text.find("\"mem.journey\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(text.find("\"id\":"), std::string::npos);
    EXPECT_NE(text.find("thread_name"), std::string::npos);
    EXPECT_NE(text.find("core 0 journeys"), std::string::npos);
    // Segment spans use the stable leaf names.
    EXPECT_NE(text.find("\"dram_service\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(CpiStackTest, ReportAndTraceFromArmedRun)
{
    const std::string path =
        ::testing::TempDir() + "cmpsim_cpi_report_trace.json";
    RunReport report;
    {
        TraceSession session(path);
        ASSERT_TRUE(session.active());
        CmpSystem sys(fullConfig(true), benchmarkParams("zeus"));
        sys.warmup(kWarmup);
        sys.run(kMeasure);
        report.stats = captureStats(sys.stats());
        report.cpi_stack = captureStats(sys.cpiStats());
        report.cycles = sys.cycles();
    }
    EXPECT_FALSE(report.stats.counters.empty());
    EXPECT_FALSE(report.cpi_stack.counters.empty());
    EXPECT_FALSE(report.cpi_stack.histograms.empty());
    std::ostringstream os;
    writeRunReport(os, report);
    EXPECT_NE(os.str().find("\"cpi_stack\""), std::string::npos);
    EXPECT_NE(os.str().find("genealogy.completed"), std::string::npos);

    const std::string text = slurp(path);
    EXPECT_NE(text.find("\"mem.journey\""), std::string::npos);
    EXPECT_NE(text.find("core 1 journeys"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CpiStackTest, LeafNamesAreStable)
{
    EXPECT_STREQ(cpiLeafName(CpiLeaf::Compute), "compute");
    EXPECT_STREQ(cpiLeafName(CpiLeaf::Decompression), "decompression");
    EXPECT_STREQ(cpiLeafName(CpiLeaf::PfResidue), "pf_residue");
}

} // namespace
} // namespace cmpsim
