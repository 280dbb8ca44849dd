/**
 * @file
 * Determinism contract of the parallel experiment runner: the result
 * of runPoints() is a pure function of the point list, independent of
 * the worker count. Compared via the same FNV-1a fingerprinting the
 * determinism_check tool uses.
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

} // namespace
} // namespace cmpsim
