/**
 * @file
 * Journaled-resume contract (DESIGN.md §8): completed points land in
 * the journal as soon as their last seed finishes, a rerun restores
 * them with byte-identical summaryBytes, a crash-truncated journal
 * still loads its valid prefix, and the summaryBytes text format
 * round-trips exactly through parseSummaryBytes().
 */

#include "src/core_api/parallel_runner.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "src/common/fingerprint.h"

namespace cmpsim {
namespace {

std::vector<PointSpec>
smallPoints()
{
    std::vector<PointSpec> specs;
    for (const char *wl : {"zeus", "apsi"}) {
        PointSpec spec;
        spec.config = makeConfig(/*cores=*/2, /*scale=*/8,
                                 /*cache_compression=*/true,
                                 /*link_compression=*/true,
                                 /*prefetching=*/true,
                                 /*adaptive=*/true);
        spec.benchmark = wl;
        spec.lengths.warmup_per_core = 5000;
        spec.lengths.measure_per_core = 2000;
        spec.seeds = 2;
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::string
journalPath(const char *name)
{
    return ::testing::TempDir() + "cmpsim_" + name + ".journal";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

// --------------------------------------------- summaryBytes format

TEST(SummaryBytesTest, RoundTripsThroughParseByteExactly)
{
    auto specs = smallPoints();
    specs.resize(1);
    const BatchResult batch = runPointsChecked(specs, 2, RunPolicy{});
    ASSERT_EQ(batch.failed(), 0u);

    const std::string bytes = summaryBytes(batch.summaries[0]);
    MetricSummary parsed;
    ASSERT_TRUE(parseSummaryBytes(bytes, parsed));
    EXPECT_EQ(parsed.runs.size(), batch.summaries[0].runs.size());
    EXPECT_EQ(summaryBytes(parsed), bytes);
}

TEST(SummaryBytesTest, ParseRejectsMalformedInput)
{
    MetricSummary out;
    EXPECT_FALSE(parseSummaryBytes("", out));
    EXPECT_FALSE(parseSummaryBytes("garbage\n", out));
    EXPECT_FALSE(parseSummaryBytes("cycles.mean=0x1p+3\n", out));
}

TEST(PointSpecBytesTest, FingerprintTracksBehaviouralKnobsOnly)
{
    auto specs = smallPoints();
    const std::uint64_t base = fnv1a(pointSpecBytes(specs[0]));

    PointSpec changed = specs[0];
    changed.config.seed = 999; // runner-owned: must not matter
    changed.config.audit_interval = 5000;
    changed.config.watchdog_cycles = 123; // observability: ditto
    EXPECT_EQ(fnv1a(pointSpecBytes(changed)), base);

    changed = specs[0];
    changed.config.cache_compression = false;
    EXPECT_NE(fnv1a(pointSpecBytes(changed)), base);

    changed = specs[0];
    changed.benchmark = "oltp";
    EXPECT_NE(fnv1a(pointSpecBytes(changed)), base);

    changed = specs[0];
    changed.seeds = 3;
    EXPECT_NE(fnv1a(pointSpecBytes(changed)), base);
}

TEST(PointSpecBytesTest, DramKnobsFingerprintOnlyWhenBackendArmed)
{
    auto specs = smallPoints();
    const std::uint64_t base = fnv1a(pointSpecBytes(specs[0]));

    // Inert knobs on the fixed backend: fingerprints (and journals
    // written before the banked backend existed) must not move.
    PointSpec changed = specs[0];
    changed.config.dram.banks = 32;
    changed.config.dram.tras = 999;
    EXPECT_EQ(fnv1a(pointSpecBytes(changed)), base);

    // Arming the backend is behavioural, as is every knob once armed.
    changed = specs[0];
    changed.config.dram.backend = DramBackendKind::Banked;
    const std::uint64_t banked = fnv1a(pointSpecBytes(changed));
    EXPECT_NE(banked, base);

    changed.config.dram.banks = 32;
    EXPECT_NE(fnv1a(pointSpecBytes(changed)), banked);

    changed.config.dram.banks = specs[0].config.dram.banks;
    changed.config.dram.sched = DramSched::Fcfs;
    EXPECT_NE(fnv1a(pointSpecBytes(changed)), banked);
}

// ----------------------------------------------------------- resume

TEST(JournalResumeTest, RerunRestoresCompletedPointsByteIdentically)
{
    const auto specs = smallPoints();
    const std::string path =
        journalPath("RerunRestoresCompletedPointsByteIdentically");
    std::remove(path.c_str());

    RunPolicy policy;
    policy.journal_path = path;

    // Uninterrupted single-worker reference run, journaling as it goes.
    const BatchResult first = runPointsChecked(specs, 1, policy);
    ASSERT_EQ(first.failed(), 0u);
    EXPECT_EQ(first.restored(), 0u);

    // Rerun over the same journal (different worker count on purpose):
    // nothing simulates, everything restores, bytes are identical.
    const BatchResult second = runPointsChecked(specs, 4, policy);
    ASSERT_EQ(second.failed(), 0u);
    EXPECT_EQ(second.restored(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(second.outcomes[i].status, PointStatus::Restored);
        EXPECT_EQ(second.outcomes[i].attempts, 0u);
        EXPECT_EQ(summaryBytes(second.summaries[i]),
                  summaryBytes(first.summaries[i]))
            << "point " << i << " diverges after journal restore";
    }
    std::remove(path.c_str());
}

TEST(JournalResumeTest, FailedPointIsNotJournaledAndRerunsClean)
{
    const auto specs = smallPoints();
    const std::string path =
        journalPath("FailedPointIsNotJournaledAndRerunsClean");
    std::remove(path.c_str());

    // Point 0 permanently fails on the first pass; point 1 completes
    // and is journaled.
    RunPolicy faulty;
    faulty.journal_path = path;
    faulty.faults = FaultPlan::parse("l2.fill:50:all:p0");
    const BatchResult interrupted = runPointsChecked(specs, 2, faulty);
    EXPECT_EQ(interrupted.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(interrupted.outcomes[1].status, PointStatus::Ok);

    // The resumed pass (no faults) skips point 1 and simulates only
    // point 0; the batch must match an uninterrupted clean run.
    RunPolicy resume;
    resume.journal_path = path;
    const BatchResult resumed = runPointsChecked(specs, 2, resume);
    EXPECT_EQ(resumed.outcomes[0].status, PointStatus::Ok);
    EXPECT_EQ(resumed.outcomes[1].status, PointStatus::Restored);

    const BatchResult clean = runPointsChecked(specs, 1, RunPolicy{});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(summaryBytes(resumed.summaries[i]),
                  summaryBytes(clean.summaries[i]))
            << "point " << i;
    }
    std::remove(path.c_str());
}

TEST(JournalResumeTest, TruncatedTailIsDroppedValidPrefixKept)
{
    const auto specs = smallPoints();
    const std::string path =
        journalPath("TruncatedTailIsDroppedValidPrefixKept");
    std::remove(path.c_str());

    RunPolicy policy;
    policy.journal_path = path;
    const BatchResult first = runPointsChecked(specs, 1, policy);
    ASSERT_EQ(first.failed(), 0u);

    // Simulate a crash mid-append: chop the file inside the last
    // record, then graft garbage on.
    std::string content = readFile(path);
    ASSERT_GT(content.size(), 100u);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content.substr(0, content.size() - 37);
        out << "point 12 oops";
    }

    const BatchResult second = runPointsChecked(specs, 2, policy);
    ASSERT_EQ(second.failed(), 0u);
    // First point survives from the valid prefix; the mangled one was
    // re-simulated and re-journaled.
    EXPECT_EQ(second.outcomes[0].status, PointStatus::Restored);
    EXPECT_EQ(second.outcomes[1].status, PointStatus::Ok);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(summaryBytes(second.summaries[i]),
                  summaryBytes(first.summaries[i]))
            << "point " << i;
    }

    // Third pass: everything restores again.
    const BatchResult third = runPointsChecked(specs, 1, policy);
    EXPECT_EQ(third.restored(), specs.size());
    std::remove(path.c_str());
}

TEST(JournalResumeTest, UnrecognisableJournalIsStartedFresh)
{
    const auto specs = smallPoints();
    const std::string path =
        journalPath("UnrecognisableJournalIsStartedFresh");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "not a journal at all\n";
    }
    RunPolicy policy;
    policy.journal_path = path;
    const BatchResult batch = runPointsChecked(specs, 2, policy);
    EXPECT_EQ(batch.failed(), 0u);
    EXPECT_EQ(batch.restored(), 0u);
    const std::string content = readFile(path);
    EXPECT_EQ(content.compare(0, 18, "cmpsim-journal v2\n"), 0)
        << content.substr(0, 40);
    std::remove(path.c_str());
}

TEST(JournalResumeTest, InteriorCorruptionTruncatesAtFirstBadRecord)
{
    const auto specs = smallPoints();
    const std::string path =
        journalPath("InteriorCorruptionTruncatesAtFirstBadRecord");
    std::remove(path.c_str());

    RunPolicy policy;
    policy.journal_path = path;
    const BatchResult first = runPointsChecked(specs, 1, policy);
    ASSERT_EQ(first.failed(), 0u);

    // Flip one byte inside the *last* record's body. The framing still
    // lines up (same length, "end\n" intact) but the per-record CRC
    // catches it — the journal must be truncated at that record, not
    // trusted.
    std::string content = readFile(path);
    ASSERT_GT(content.size(), 100u);
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        const auto off =
            static_cast<std::streamoff>(content.size() - 10);
        f.seekp(off);
        char c = content[content.size() - 10];
        c = static_cast<char>(c ^ 0x01);
        f.write(&c, 1);
    }

    const BatchResult second = runPointsChecked(specs, 2, policy);
    ASSERT_EQ(second.failed(), 0u);
    EXPECT_EQ(second.outcomes[0].status, PointStatus::Restored);
    EXPECT_EQ(second.outcomes[1].status, PointStatus::Ok)
        << "corrupt record was trusted instead of re-simulated";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(summaryBytes(second.summaries[i]),
                  summaryBytes(first.summaries[i]))
            << "point " << i;
    }
    std::remove(path.c_str());
}

TEST(JournalResumeTest, V1JournalIsReadAndUpgradedToV2)
{
    const auto specs = smallPoints();
    const std::string path =
        journalPath("V1JournalIsReadAndUpgradedToV2");
    std::remove(path.c_str());

    RunPolicy policy;
    policy.journal_path = path;
    const BatchResult first = runPointsChecked(specs, 1, policy);
    ASSERT_EQ(first.failed(), 0u);

    // Downgrade the file to the v1 format (no per-record CRC field)
    // by rewriting each record head, exactly what a journal written
    // before the CRC existed looks like.
    const std::string v2 = readFile(path);
    ASSERT_EQ(v2.compare(0, 18, "cmpsim-journal v2\n"), 0);
    std::string v1 = "cmpsim-journal v1\n";
    std::size_t pos = 18;
    while (pos < v2.size()) {
        ASSERT_EQ(v2.compare(pos, 6, "point "), 0);
        const std::size_t nl = v2.find('\n', pos);
        ASSERT_NE(nl, std::string::npos);
        const std::string head = v2.substr(pos, nl - pos);
        // "point <fp> <len> <crc>" -> "point <fp> <len>"
        const std::size_t crc_sp = head.rfind(' ');
        ASSERT_NE(crc_sp, std::string::npos);
        const std::string fp_len = head.substr(0, crc_sp);
        const std::size_t len =
            std::stoul(fp_len.substr(fp_len.rfind(' ') + 1));
        v1 += fp_len + "\n";
        v1 += v2.substr(nl + 1, len + 4); // body + "end\n"
        pos = nl + 1 + len + 4;
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << v1;
    }

    // Loading the v1 file restores every point and rewrites the
    // journal in place as v2, CRCs and all.
    const BatchResult second = runPointsChecked(specs, 2, policy);
    ASSERT_EQ(second.failed(), 0u);
    EXPECT_EQ(second.restored(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(summaryBytes(second.summaries[i]),
                  summaryBytes(first.summaries[i]))
            << "point " << i;
    }
    EXPECT_EQ(readFile(path), v2) << "v1 journal was not upgraded";
    std::remove(path.c_str());
}

} // namespace
} // namespace cmpsim
