/**
 * @file
 * Contracts of the parallel experiment runner (DESIGN.md §8): the
 * result of runPoints() is a pure function of the point list,
 * independent of the worker count (compared via the same FNV-1a
 * fingerprinting the determinism_check tool uses), one failing point
 * never sinks the batch, and the livelock watchdog ends a stalled
 * run. Failures come from the simulator itself: a watchdog bound
 * shorter than one memory access, or an unknown benchmark.
 */

#include "src/core_api/parallel_runner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "tests/env_guard.h"

namespace cmpsim {
namespace {

/** zeus + apsi under the full feature set, two seeds each. */
std::vector<PointSpec>
standardPoints()
{
    std::vector<PointSpec> specs;
    for (const char *wl : {"zeus", "apsi"}) {
        PointSpec spec;
        spec.config = makeConfig(/*cores=*/4, /*scale=*/4,
                                 /*cache_compression=*/true,
                                 /*link_compression=*/true,
                                 /*prefetching=*/true,
                                 /*adaptive=*/true);
        spec.benchmark = wl;
        spec.lengths.warmup_per_core = 20000;
        spec.lengths.measure_per_core = 5000;
        spec.seeds = 2;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** Two small full-feature points (zeus, apsi), two seeds each. */
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

/** A watchdog bound shorter than one 400-cycle memory access: every
 *  seed of smallPoints() trips it mid-run. */
constexpr Cycle kStallingWatchdog = 100;

std::vector<std::uint64_t>
fingerprints(const std::vector<MetricSummary> &results)
{
    std::vector<std::uint64_t> hashes;
    hashes.reserve(results.size());
    for (const auto &s : results)
        hashes.push_back(fnv1a(summaryBytes(s)));
    return hashes;
}

TEST(ParallelRunnerTest, EmptyBatchYieldsEmptyResults)
{
    EXPECT_TRUE(runPoints({}, 4).empty());
}

TEST(ParallelRunnerTest, ResultShapeMatchesSpecs)
{
    const auto results = runPoints(standardPoints(), 2);
    ASSERT_EQ(results.size(), 2u);
    for (const auto &s : results) {
        EXPECT_EQ(s.runs.size(), 2u);
        EXPECT_EQ(s.cycles.n, 2u);
        EXPECT_GT(s.cycles.mean, 0.0);
        for (const auto &r : s.runs)
            EXPECT_GT(r.instructions, 0.0);
    }
}

TEST(ParallelRunnerTest, OneVsFourJobsByteIdentical)
{
    const auto specs = standardPoints();
    const auto serial = fingerprints(runPoints(specs, 1));
    const auto parallel = fingerprints(runPoints(specs, 4));
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i])
            << "point " << i << " (" << specs[i].benchmark
            << ") diverges between 1 and 4 workers";
}

TEST(ParallelRunnerTest, RepeatedParallelRunsReproduce)
{
    const auto specs = standardPoints();
    EXPECT_EQ(fingerprints(runPoints(specs, 4)),
              fingerprints(runPoints(specs, 4)));
}

TEST(ParallelRunnerTest, BatchReportRecordsTheKnobSet)
{
    const std::string path =
        ::testing::TempDir() + "cmpsim_batch_report_knobs.json";
    EnvGuard progress("CMPSIM_PROGRESS", "0");
    RunPolicy policy;
    policy.report_path = path;
    // An empty batch still writes its report.
    runPointsChecked({}, 1, policy);

    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("\"CMPSIM_PROGRESS\": \"0\""),
              std::string::npos);
    std::remove(path.c_str());
}

// ----------------------------------------------- batch containment

TEST(FaultContainmentTest, PermanentFaultFailsOnePointNotTheBatch)
{
    auto specs = smallPoints();
    const BatchResult expected = runPointsChecked(specs, 2, RunPolicy{});

    specs[0].config.watchdog_cycles = kStallingWatchdog;
    const BatchResult batch = runPointsChecked(specs, 2, RunPolicy{});

    EXPECT_EQ(batch.failed(), 1u);
    EXPECT_EQ(batch.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(batch.outcomes[0].error_kind, ErrorKind::Watchdog);
    EXPECT_EQ(batch.outcomes[0].attempts, 1u);
    EXPECT_NE(batch.outcomes[0].error.find("cmp_system.run"),
              std::string::npos)
        << batch.outcomes[0].error;

    // The healthy point is untouched by its neighbour's failure.
    EXPECT_EQ(batch.outcomes[1].status, PointStatus::Ok);
    EXPECT_EQ(fnv1a(summaryBytes(batch.summaries[1])),
              fnv1a(summaryBytes(expected.summaries[1])));

    const std::string digest = batch.failureSummary();
    EXPECT_NE(digest.find("1/2 points failed"), std::string::npos)
        << digest;
    EXPECT_NE(digest.find("point 0"), std::string::npos) << digest;
}

TEST(FaultContainmentTest, DeterministicErrorsAreNotRetried)
{
    // An unknown benchmark is a WorkloadError: it fails its own point
    // and the rest of the batch still completes.
    auto specs = smallPoints();
    specs[0].benchmark = "no-such-benchmark";

    const BatchResult batch = runPointsChecked(specs, 2, RunPolicy{});

    EXPECT_EQ(batch.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(batch.outcomes[0].error_kind, ErrorKind::Workload);
    EXPECT_EQ(batch.outcomes[0].attempts, 1u);
    EXPECT_EQ(batch.outcomes[1].status, PointStatus::Ok);
}

TEST(FaultContainmentTest, FailedPointKeepsItsCompletedSeeds)
{
    auto specs = smallPoints();
    specs.resize(1);
    auto runAt = [&specs](Cycle bound) {
        specs[0].config.watchdog_cycles = bound;
        return runPointsChecked(specs, 2, RunPolicy{});
    };

    // Bisect for the largest bound at which the point still fails: the
    // longer of its two seeds' longest waits for a retired
    // instruction. At that bound only the seed with that wait fails.
    Cycle lo = 1;       // fails
    Cycle hi = 1 << 20; // completes
    ASSERT_EQ(runAt(lo).failed(), 1u);
    ASSERT_EQ(runAt(hi).failed(), 0u);
    while (hi - lo > 1) {
        const Cycle mid = lo + (hi - lo) / 2;
        (runAt(mid).failed() == 1 ? lo : hi) = mid;
    }

    const BatchResult batch = runAt(lo);
    ASSERT_EQ(batch.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(batch.outcomes[0].error_kind, ErrorKind::Watchdog);
    const auto &runs = batch.summaries[0].runs;
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ((runs[0].instructions > 0.0) + (runs[1].instructions > 0.0),
              1)
        << "watchdog bound " << lo;
}

TEST(FaultContainmentTest, StrictRunPointsThrowsTheFailureSummary)
{
    auto specs = smallPoints();
    specs.resize(1);
    specs[0].benchmark = "no-such-benchmark";
    try {
        runPoints(specs, 1);
        FAIL() << "runPoints did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Workload);
        EXPECT_NE(std::string(e.what()).find("points failed"),
                  std::string::npos)
            << e.what();
    }
}

// --------------------------------------------------------- watchdog

TEST(WatchdogTest, InjectedLivelockTerminatesViaWatchdog)
{
    // No core can retire across a memory access shorter than the
    // bound, so the run stalls past it and the watchdog ends it.
    auto specs = smallPoints();
    specs.resize(1);
    specs[0].seeds = 1;
    specs[0].config.watchdog_cycles = kStallingWatchdog;

    const BatchResult batch = runPointsChecked(specs, 1, RunPolicy{});

    ASSERT_EQ(batch.outcomes.size(), 1u);
    EXPECT_EQ(batch.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(batch.outcomes[0].error_kind, ErrorKind::Watchdog);
    EXPECT_NE(batch.outcomes[0].error.find("no instruction retired"),
              std::string::npos)
        << batch.outcomes[0].error;
    // The diagnostic dump names the cores and the event queue.
    EXPECT_NE(batch.outcomes[0].error.find("core.0"), std::string::npos)
        << batch.outcomes[0].error;
    EXPECT_NE(batch.outcomes[0].error.find("eq.size"), std::string::npos)
        << batch.outcomes[0].error;
}

} // namespace
} // namespace cmpsim
