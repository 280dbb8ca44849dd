#include "src/audit/audits.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/sim_error.h"

#include "src/compression/fpc.h"
#include "src/core_api/cmp_system.h"
#include "src/prefetch/stride_prefetcher.h"
#include "src/workload/workload_params.h"

namespace cmpsim {
namespace {

TagEntry
makeEntry(Addr line, unsigned segments = kSegmentsPerLine)
{
    TagEntry e;
    e.line = line;
    e.valid = true;
    e.segments = static_cast<std::uint8_t>(segments);
    return e;
}

// ---------------------------------------------------------- registry

TEST(InvariantRegistryTest, CheckCollectsFailuresWithoutAborting)
{
    InvariantRegistry reg;
    reg.add("always.ok", [](std::string &) { return true; });
    reg.add("always.bad", [](std::string &why) {
        why = "broken on purpose";
        return false;
    });
    reg.add("also.bad", [](std::string &) { return false; });

    const auto failures = reg.check();
    ASSERT_EQ(failures.size(), 2u);
    EXPECT_EQ(failures[0].name, "always.bad");
    EXPECT_EQ(failures[0].detail, "broken on purpose");
    EXPECT_EQ(failures[1].name, "also.bad");
    EXPECT_EQ(reg.passesRun(), 1u);
}

TEST(InvariantRegistryTest, EnforcePanicsWithInvariantName)
{
    InvariantRegistry reg;
    reg.add("doomed.check", [](std::string &why) {
        why = "counter drifted by 3";
        return false;
    });
    try {
        reg.enforce();
        FAIL() << "enforce() did not throw";
    } catch (const InvariantError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("doomed.check"), std::string::npos) << what;
        EXPECT_NE(what.find("counter drifted by 3"), std::string::npos)
            << what;
    }
}

TEST(InvariantRegistryTest, DuplicateNameIsFatal)
{
    // A name registered twice is a cmpsim bug: fatal to the point that
    // builds the registry (InvariantError), not to the whole process.
    InvariantRegistry reg;
    reg.add("dup", [](std::string &) { return true; });
    EXPECT_THROW(reg.add("dup", [](std::string &) { return true; }),
                 InvariantError);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(InvariantRegistryTest, NamesPreserveRegistrationOrder)
{
    InvariantRegistry reg;
    reg.add("b", [](std::string &) { return true; });
    reg.add("a", [](std::string &) { return true; });
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "b");
    EXPECT_EQ(names[1], "a");
}

// ----------------------------------------------- decoupled-set audit

TEST(AuditDecoupledSetTest, CleanSetPasses)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    set.insert(makeEntry(0x100, 4));
    set.insert(makeEntry(0x200, 8));
    std::string why;
    EXPECT_TRUE(auditDecoupledSet(set, false, why)) << why;
}

TEST(AuditDecoupledSetTest, DetectsSegmentAccountingDrift)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    set.insert(makeEntry(0x100, 4));
    // Corrupt the per-tag charge behind the set's back: the cached
    // used_segments_ total no longer matches the sum over tags.
    set.entryForTest(0).segments = 6;
    std::string why;
    EXPECT_FALSE(auditDecoupledSet(set, false, why));
    EXPECT_NE(why.find("segment accounting drift"), std::string::npos)
        << why;
}

TEST(AuditDecoupledSetTest, DetectsValidEntryBehindVictimTag)
{
    std::vector<TagEntry> set_tags(4);
    DecoupledSet set(set_tags.data(), 4, 32);
    set.insert(makeEntry(0x100, 8));
    set.insert(makeEntry(0x200, 8));
    // Invalidate the MRU tag directly, stranding 0x100 behind it.
    set.entryForTest(0).valid = false;
    set.entryForTest(0).segments = kSegmentsPerLine;
    std::string why;
    EXPECT_FALSE(auditDecoupledSet(set, false, why));
    EXPECT_NE(why.find("MRU prefix"), std::string::npos) << why;
}

TEST(AuditDecoupledSetTest, DetectsDuplicateLineAddress)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    set.insert(makeEntry(0x100, 4));
    set.insert(makeEntry(0x200, 4));
    set.entryForTest(0).line = 0x100; // now two tags claim 0x100
    std::string why;
    EXPECT_FALSE(auditDecoupledSet(set, false, why));
    EXPECT_NE(why.find("duplicate valid line"), std::string::npos)
        << why;
}

TEST(AuditDecoupledSetTest, DetectsPartialChargeWhenFullRequired)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 64);
    set.insert(makeEntry(0x100, 8));
    std::string why;
    EXPECT_TRUE(auditDecoupledSet(set, true, why)) << why;
    // An uncompressed cache must charge every line exactly 8 segments.
    std::vector<TagEntry> partial_tags(8);
    DecoupledSet partial(partial_tags.data(), 8, 64);
    partial.insert(makeEntry(0x200, 3));
    EXPECT_FALSE(auditDecoupledSet(partial, true, why));
    EXPECT_NE(why.find("expected exactly"), std::string::npos) << why;
}

TEST(AuditDecoupledSetTest, DetectsLiveStateOnInvalidTag)
{
    std::vector<TagEntry> set_tags(4);
    DecoupledSet set(set_tags.data(), 4, 32);
    set.insert(makeEntry(0x100, 8));
    set.invalidate(0x100);
    // A victim tag that still claims dirty data is a leak waiting to
    // be re-inserted.
    set.entryForTest(set.entries().size() - 1).dirty = true;
    std::string why;
    EXPECT_FALSE(auditDecoupledSet(set, false, why));
    EXPECT_NE(why.find("live"), std::string::npos) << why;
}

// ----------------------------------------- prefetcher filter audit

/** A prefetcher whose +1 and -1 tables hold valid entries 0..4 (MRU
 *  first: 4, 3, 2, 1, 0) and 27 invalid ones. */
StridePrefetcher
trainedPrefetcher()
{
    StridePrefetcher pf(PrefetcherParams{});
    for (Addr l = 0; l < 5; ++l)
        pf.observeMiss((1000 + 100 * l) << kLineShift, 6);
    return pf;
}

TEST(AuditPrefetcherTest, CleanTablesPass)
{
    StridePrefetcher pf = trainedPrefetcher();
    std::string why;
    EXPECT_TRUE(pf.auditFilters(why)) << why;
    const auto &t = pf.filterForTest(StridePrefetcher::kPosUnit);
    EXPECT_EQ(t.mru, 4);
    EXPECT_EQ(t.lru, 0);
    pf.clear();
    EXPECT_TRUE(pf.auditFilters(why)) << why;
}

TEST(AuditPrefetcherTest, DetectsListedEntryMarkedInvalid)
{
    StridePrefetcher pf = trainedPrefetcher();
    pf.filterForTest(StridePrefetcher::kPosUnit).invalid |= 1u << 2;
    std::string why;
    EXPECT_FALSE(pf.auditFilters(why));
    EXPECT_NE(why.find("+1 filter table"), std::string::npos) << why;
    EXPECT_NE(why.find("partition"), std::string::npos) << why;
}

TEST(AuditPrefetcherTest, DetectsPrevSuccDisagreement)
{
    StridePrefetcher pf = trainedPrefetcher();
    pf.filterForTest(StridePrefetcher::kNegUnit).prev[2] = 0;
    std::string why;
    EXPECT_FALSE(pf.auditFilters(why));
    EXPECT_NE(why.find("-1 filter table"), std::string::npos) << why;
    EXPECT_NE(why.find("entry 2 has prev 0"), std::string::npos) << why;
}

TEST(AuditPrefetcherTest, DetectsLruListCycle)
{
    StridePrefetcher pf = trainedPrefetcher();
    auto &t = pf.filterForTest(StridePrefetcher::kPosUnit);
    t.succ[t.lru] = t.mru;
    std::string why;
    EXPECT_FALSE(pf.auditFilters(why));
    EXPECT_NE(why.find("revisits"), std::string::npos) << why;
}

TEST(AuditPrefetcherTest, DetectsInvalidEntryWithoutSentinel)
{
    StridePrefetcher pf = trainedPrefetcher();
    // Entry 9 is invalid; a stale next line would let it match.
    pf.filterForTest(StridePrefetcher::kNonUnit).next[9] = 77;
    std::string why;
    EXPECT_FALSE(pf.auditFilters(why));
    EXPECT_NE(why.find("non-unit filter table: entry 9 is invalid"),
              std::string::npos)
        << why;
}

// ------------------------------------------------- round-trip audit

TEST(AuditRoundTripTest, FpcSurvivesStructuredData)
{
    FpcCompressor fpc;
    LineData line{};
    for (unsigned i = 0; i < kLineBytes; ++i)
        line[i] = static_cast<std::uint8_t>(i * 7 + 3);
    std::string why;
    EXPECT_TRUE(auditCompressorRoundTrip(fpc, line, why)) << why;
}

namespace {
/** A deliberately lossy "compressor" the audit must reject. */
class LossyCompressor : public Compressor
{
  public:
    std::string name() const override { return "lossy"; }

    CompressedSize
    compress(const LineData &line, BitStream *out) const override
    {
        (void)line;
        if (out)
            *out = BitStream{};
        return CompressedSize{64, 1};
    }

    LineData
    decompress(const BitStream &, const CompressedSize &) const override
    {
        LineData garbage{};
        garbage[5] = 0xAB;
        return garbage;
    }
};
} // namespace

TEST(AuditRoundTripTest, DetectsLossyCompressor)
{
    LossyCompressor lossy;
    LineData line{};
    line[5] = 0xCD;
    std::string why;
    EXPECT_FALSE(auditCompressorRoundTrip(lossy, line, why));
    EXPECT_NE(why.find("round-trip mismatch at byte 5"),
              std::string::npos)
        << why;
}

// ------------------------------------------------ event-queue audit

TEST(AuditEventQueueTest, CleanQueuePassesAndAdvancesTrack)
{
    EventQueue eq;
    InvariantRegistry reg;
    registerEventQueueAudits(reg, eq, "eq");
    EXPECT_EQ(reg.names().back(), "eq.wheel");
    // The far event waits in the overflow heap until now() comes
    // within a wheel's span of it, then migrates to its bucket.
    const Cycle far = 5 + 2 * EventQueue::kWheelSlots;
    eq.schedule(10, [](Cycle) {});
    eq.schedule(far, [](Cycle) {});
    EXPECT_TRUE(reg.check().empty());
    eq.advanceTo(5);
    EXPECT_TRUE(reg.check().empty());
    eq.advanceTo(50);
    EXPECT_TRUE(reg.check().empty());
    eq.advanceTo(far - EventQueue::kWheelSlots + 1);
    EXPECT_TRUE(reg.check().empty());
    EXPECT_EQ(eq.nextEventCycle(), far);
    eq.advanceTo(far);
    EXPECT_TRUE(eq.empty());
    const auto failures = reg.check();
    EXPECT_TRUE(failures.empty())
        << failures[0].name << ": " << failures[0].detail;
}

// ------------------------------------------------ whole-system audit

TEST(AuditSystemTest, FullSystemRunPassesAllAudits)
{
    SystemConfig cfg = makeConfig(2, 8, true, true, true, true);
    cfg.audit_interval = 5000;
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    sys.warmup(3000);
    sys.run(2000); // enforces periodically + at end-of-run
    EXPECT_GT(sys.audits().size(), 10u);
    EXPECT_GE(sys.audits().passesRun(), 1u);
    const auto failures = sys.audits().check();
    EXPECT_TRUE(failures.empty())
        << failures[0].name << ": " << failures[0].detail;
}

TEST(AuditSystemTest, HorizonAndFilterAuditsRegisteredOncePerSystem)
{
    auto count = [](const std::vector<std::string> &names,
                    const std::string &name) {
        return std::count(names.begin(), names.end(), name);
    };
    CmpSystem pf_sys(makeConfig(4, 8, false, false, true, false),
                     benchmarkParams("jbb"));
    EXPECT_EQ(count(pf_sys.audits().names(), "core.done_horizon"), 1);
    EXPECT_EQ(count(pf_sys.audits().names(), "prefetch.filters"), 1);
    CmpSystem base(makeConfig(4, 8, false, false, false, false),
                   benchmarkParams("jbb"));
    EXPECT_EQ(count(base.audits().names(), "core.done_horizon"), 1);
    EXPECT_EQ(count(base.audits().names(), "prefetch.filters"), 0);
}

TEST(AuditSystemTest, LoweredDoneHorizonIsCaughtAndNamed)
{
    SystemConfig cfg = makeConfig(2, 8, false, false, false, false);
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    sys.warmup(2000);
    sys.run(500);
    EXPECT_TRUE(sys.audits().check().empty());

    // Pretend no completion was ever written: the in-flight ROB
    // entries the run left behind now lie past the horizon, and a
    // blocked tick would skip the scan that finds their wake-up.
    for (unsigned c = 0; c < cfg.cores; ++c)
        sys.core(c).setDoneHorizonForTest(0);
    const auto failures = sys.audits().check();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].name, "core.done_horizon");
    EXPECT_NE(failures[0].detail.find("past the done horizon 0"),
              std::string::npos)
        << failures[0].detail;
}

TEST(AuditSystemTest, CorruptedL2SetIsCaughtAndNamed)
{
    SystemConfig cfg = makeConfig(2, 8, false, false, false, false);
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    sys.warmup(2000);
    sys.run(500);

    // Reach into a set the run populated and corrupt one tag's
    // segment charge.
    DecoupledSet *victim = nullptr;
    for (unsigned i = 0; i < sys.config().l2Params().sets; ++i) {
        if (sys.l2().setAt(i).validCount() > 0) {
            victim = const_cast<DecoupledSet *>(&sys.l2().setAt(i));
            break;
        }
    }
    ASSERT_NE(victim, nullptr) << "run left the L2 empty";
    victim->entryForTest(0).segments = 3;

    const auto failures = sys.audits().check();
    ASSERT_FALSE(failures.empty());
    EXPECT_EQ(failures[0].name, "l2.set_integrity");
    try {
        sys.audits().enforce();
        FAIL() << "enforce() did not throw";
    } catch (const InvariantError &e) {
        EXPECT_NE(std::string(e.what()).find("l2.set_integrity"),
                  std::string::npos)
            << e.what();
    }
}

TEST(AuditSystemTest, DesyncedAdaptiveControllerIsCaughtAndNamed)
{
    SystemConfig cfg = makeConfig(2, 8, false, false, true, true);
    CmpSystem sys(cfg, benchmarkParams("apsi"));
    sys.warmup(2000);
    sys.run(500);

    // Feed the shared L2 controller events the L2 never saw: the
    // useful-prefetch cross-check must notice the disagreement.
    for (int i = 0; i < 3; ++i)
        sys.l2Adaptive().onUsefulPrefetch();
    const auto failures = sys.audits().check();
    ASSERT_FALSE(failures.empty());
    bool found = false;
    for (const auto &f : failures)
        found = found || f.name == "l2.adaptive_feedback";
    EXPECT_TRUE(found) << "expected l2.adaptive_feedback to fire";
}

} // namespace
} // namespace cmpsim
