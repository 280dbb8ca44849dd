/**
 * @file
 * Journaled-resume contract (DESIGN.md §8): completed points land in
 * the journal as soon as their last seed finishes, a rerun restores
 * them with byte-identical summaryBytes, a crash-truncated journal
 * still loads its valid prefix, a file that is not a journal is
 * refused and left untouched, and the summaryBytes text format
 * round-trips exactly through parseSummaryBytes().
 */

#include "src/core_api/parallel_runner.h"

#include <gtest/gtest.h>

#include <cstdio>
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
    const auto specs = smallPoints();
    const BatchResult batch = runPointsChecked(specs, 2, RunPolicy{});
    ASSERT_EQ(batch.failed(), 0u);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string bytes = summaryBytes(batch.summaries[i]);
        MetricSummary parsed;
        ASSERT_TRUE(parseSummaryBytes(bytes, parsed));
        EXPECT_EQ(parsed.runs.size(), batch.summaries[i].runs.size());
        EXPECT_EQ(summaryBytes(parsed), bytes);
    }
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

    // Point 0 trips a watchdog bound shorter than one memory access on
    // the first pass; point 1 completes and is journaled. The bound is
    // not part of the journal key.
    RunPolicy policy;
    policy.journal_path = path;
    auto stalling = specs;
    stalling[0].config.watchdog_cycles = 100;
    const BatchResult interrupted = runPointsChecked(stalling, 2, policy);
    EXPECT_EQ(interrupted.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(interrupted.outcomes[0].error_kind, ErrorKind::Watchdog);
    EXPECT_EQ(interrupted.outcomes[1].status, PointStatus::Ok);

    // The resumed pass over the unmodified specs skips point 1 and
    // simulates only point 0; the batch must match an uninterrupted
    // clean run.
    const BatchResult resumed = runPointsChecked(specs, 2, policy);
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

TEST(JournalResumeTest, ArmedPlanIsNotRestoredFromItsUnsampledTwin)
{
    // A point that arms a sampling plan fails [config] (only
    // MatrixSampler runs a plan). Its journal key differs from its
    // unsampled twin's, so a journal holding the twin does not
    // restore it in place of that failure.
    auto specs = smallPoints();
    specs.resize(1);
    const std::string path =
        journalPath("ArmedPlanIsNotRestoredFromItsUnsampledTwin");
    std::remove(path.c_str());

    RunPolicy policy;
    policy.journal_path = path;
    ASSERT_EQ(runPointsChecked(specs, 1, policy).failed(), 0u);

    specs[0].config.sampling = SamplingPlan::parse("2000:1000:3");
    const BatchResult armed = runPointsChecked(specs, 1, policy);
    EXPECT_EQ(armed.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(armed.outcomes[0].error_kind, ErrorKind::Config);
    EXPECT_NE(armed.outcomes[0].error.find("config.sampling"),
              std::string::npos)
        << armed.outcomes[0].error;
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

    // A v1 journal (records without a CRC field) holding every point
    // of this very batch: only v2 is read, so none of it is restored.
    const BatchResult clean = runPointsChecked(specs, 2, RunPolicy{});
    std::string v1 = "cmpsim-journal v1\n";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string body = summaryBytes(clean.summaries[i]);
        char head[64];
        std::snprintf(head, sizeof(head), "point %016llx %zu\n",
                      static_cast<unsigned long long>(
                          fnv1a(pointSpecBytes(specs[i]))),
                      body.size());
        v1 += head + body + "end\n";
    }

    RunPolicy policy;
    policy.journal_path = path;
    auto write = [&path](const std::string &text) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    };

    // What a crash (an empty file, a torn header) or an older build
    // (a v1 journal) leaves behind restarts fresh.
    for (const std::string &old :
         {std::string(), std::string("cmpsim-jour"), v1}) {
        write(old);
        const BatchResult batch = runPointsChecked(specs, 2, policy);
        EXPECT_EQ(batch.failed(), 0u);
        EXPECT_EQ(batch.restored(), 0u) << old.substr(0, 18);
        const std::string content = readFile(path);
        EXPECT_EQ(content.compare(0, 18, "cmpsim-journal v2\n"), 0)
            << content.substr(0, 40);
    }

    // Any other file is not a journal: refused, and left as it was.
    const std::string notes = "not a journal at all\n";
    write(notes);
    try {
        runPointsChecked(specs, 2, policy);
        FAIL() << "a file that is not a journal was accepted";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.context(), "journal");
    }
    EXPECT_EQ(readFile(path), notes);
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

} // namespace
} // namespace cmpsim
