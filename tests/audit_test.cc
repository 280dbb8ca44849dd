#include "src/audit/audits.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/sim_error.h"

#include "src/compression/bdi.h"
#include "src/compression/fpc.h"
#include "src/core_api/cmp_system.h"
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
    InvariantRegistry reg;
    reg.add("dup", [](std::string &) { return true; });
    EXPECT_DEATH(reg.add("dup", [](std::string &) { return true; }),
                 "duplicate invariant name");
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

// ------------------------------------------------- round-trip audit

TEST(AuditRoundTripTest, FpcAndBdiSurviveStructuredData)
{
    FpcCompressor fpc;
    BdiCompressor bdi;
    LineData line{};
    for (unsigned i = 0; i < kLineBytes; ++i)
        line[i] = static_cast<std::uint8_t>(i * 7 + 3);
    std::string why;
    EXPECT_TRUE(auditCompressorRoundTrip(fpc, line, why)) << why;
    EXPECT_TRUE(auditCompressorRoundTrip(bdi, line, why)) << why;
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
    eq.schedule(10, [](Cycle) {});
    EXPECT_TRUE(reg.check().empty());
    eq.advanceTo(5);
    EXPECT_TRUE(reg.check().empty());
    eq.advanceTo(50);
    EXPECT_TRUE(reg.check().empty());
}

// ------------------------------------------------ whole-system audit

TEST(AuditSystemTest, FullSystemRunPassesAllAudits)
{
    SystemConfig cfg = makeConfig(2, 8, true, true, true, true);
    cfg.audit_interval = 5000;
    cfg.audit_fill_roundtrip = true;
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    sys.warmup(3000);
    sys.run(2000); // enforces periodically + at end-of-run
    EXPECT_GT(sys.audits().size(), 10u);
    EXPECT_GE(sys.audits().passesRun(), 1u);
    const auto failures = sys.audits().check();
    EXPECT_TRUE(failures.empty())
        << failures[0].name << ": " << failures[0].detail;
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
