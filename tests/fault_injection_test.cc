/**
 * @file
 * Fault-injection harness + crash-containment contract (DESIGN.md §8):
 * the CMPSIM_FAULT grammar, deterministic triggering at named sites,
 * batch containment and retry in runPointsChecked(), the livelock
 * watchdog, and the wall-clock point deadline.
 */

#include "src/sim/fault_injection.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/core_api/cmp_system.h"
#include "src/core_api/parallel_runner.h"
#include "src/sample/sampling_controller.h"
#include "src/workload/workload_params.h"

namespace cmpsim {
namespace {

/** Two small full-feature points, two seeds each. */
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

std::vector<std::uint64_t>
fingerprints(const BatchResult &batch)
{
    std::vector<std::uint64_t> hashes;
    for (const auto &s : batch.summaries)
        hashes.push_back(fnv1a(summaryBytes(s)));
    return hashes;
}

// ------------------------------------------------------ plan grammar

TEST(FaultPlanTest, ParsesFullGrammar)
{
    const FaultPlan plan = FaultPlan::parse(
        "l2.fill:100,link.transfer:5:all:p1:s2,core.stall:1:stall:3");
    ASSERT_EQ(plan.specs().size(), 3u);

    const FaultSpec &a = plan.specs()[0];
    EXPECT_EQ(a.site, "l2.fill");
    EXPECT_EQ(a.nth, 100u);
    EXPECT_EQ(a.fail_attempts, 1u);
    EXPECT_EQ(a.kind, FaultKind::Throw);
    EXPECT_EQ(a.point, kFaultAnyPoint);
    EXPECT_EQ(a.seed, kFaultAnySeed);

    const FaultSpec &b = plan.specs()[1];
    EXPECT_EQ(b.site, "link.transfer");
    EXPECT_EQ(b.fail_attempts, kFaultAllAttempts);
    EXPECT_EQ(b.point, 1u);
    EXPECT_EQ(b.seed, 2u);

    const FaultSpec &c = plan.specs()[2];
    EXPECT_EQ(c.kind, FaultKind::Stall);
    EXPECT_EQ(c.fail_attempts, 3u);
}

TEST(FaultPlanTest, EmptySpecYieldsEmptyPlan)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlanTest, MalformedSpecsThrowConfigError)
{
    EXPECT_THROW(FaultPlan::parse("l2.fill"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("l2.fill:zero"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("l2.fill:0"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("l2.fill:1:bogus"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("l2.fill:1:p"), ConfigError);
    EXPECT_THROW(FaultPlan::parse(":5"), ConfigError);
    // Sites no probe uses: a misspelling and two retired names.
    EXPECT_THROW(FaultPlan::parse("l2.fil:1"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("lane.sync:1"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("ckpt.save:1"), ConfigError);
}

// ------------------------------------------------------- site probes

TEST(FaultProbeTest, UnarmedProbesAreInert)
{
    EXPECT_NO_THROW(faultSite("l2.fill"));
    EXPECT_FALSE(faultStallActive("core.stall"));
    EXPECT_NO_THROW(checkPointDeadline("test"));
}

TEST(FaultProbeTest, ThrowsOnExactlyTheNthHit)
{
    const FaultPlan plan = FaultPlan::parse("l2.fill:3");
    FaultArmGuard arm(plan, /*attempt=*/1);
    EXPECT_NO_THROW(faultSite("l2.fill"));
    EXPECT_NO_THROW(faultSite("other.site"));
    EXPECT_NO_THROW(faultSite("l2.fill"));
    try {
        faultSite("l2.fill"); // third hit
        FAIL() << "third hit did not throw";
    } catch (const InjectedFault &e) {
        EXPECT_EQ(e.context(), "l2.fill");
    }
    // Past the nth occurrence the site is quiet again.
    EXPECT_NO_THROW(faultSite("l2.fill"));
}

TEST(FaultProbeTest, TransientFaultSkipsLaterAttempts)
{
    const FaultPlan plan = FaultPlan::parse("l2.fill:1");
    {
        FaultArmGuard arm(plan, /*attempt=*/1);
        EXPECT_THROW(faultSite("l2.fill"), InjectedFault);
    }
    {
        FaultArmGuard arm(plan, /*attempt=*/2);
        EXPECT_NO_THROW(faultSite("l2.fill"));
    }
}

TEST(FaultProbeTest, StallLatchesAndSticks)
{
    const FaultPlan plan = FaultPlan::parse("core.stall:2:stall:all");
    FaultArmGuard arm(plan, 1);
    EXPECT_FALSE(faultStallActive("core.stall"));
    EXPECT_TRUE(faultStallActive("core.stall")); // second hit latches
    EXPECT_TRUE(faultStallActive("core.stall")); // sticky
}

TEST(FaultProbeTest, DeadlineGuardThrowsWatchdogTimeout)
{
    DeadlineGuard deadline(1e-9);
    try {
        checkPointDeadline("unit");
        FAIL() << "expired deadline did not throw";
    } catch (const WatchdogTimeout &e) {
        EXPECT_NE(std::string(e.what()).find("CMPSIM_POINT_TIMEOUT"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultProbeTest, SamplingSitesFireDuringSampledRuns)
{
    // The sampling engine exposes two sites: sample.ff (once per
    // fast-forward chunk) and sample.interval (once per interval).
    SystemConfig cfg = makeConfig(2, 8, false, false, false, false);
    cfg.sampling = SamplingPlan::parse("4000:1000:3");
    {
        const FaultPlan plan = FaultPlan::parse("sample.ff:2");
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        SamplingController ctl(sys);
        FaultArmGuard arm(plan, /*attempt=*/1);
        try {
            ctl.run();
            FAIL() << "sample.ff fault did not fire";
        } catch (const InjectedFault &e) {
            EXPECT_EQ(e.context(), "sample.ff");
        }
    }
    {
        const FaultPlan plan = FaultPlan::parse("sample.interval:3");
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        SamplingController ctl(sys);
        FaultArmGuard arm(plan, /*attempt=*/1);
        try {
            ctl.run();
            FAIL() << "sample.interval fault did not fire";
        } catch (const InjectedFault &e) {
            EXPECT_EQ(e.context(), "sample.interval");
        }
    }
    {
        // Unsampled runs never touch either site.
        const FaultPlan plan =
            FaultPlan::parse("sample.ff:1,sample.interval:1");
        SystemConfig plain = makeConfig(2, 8, false, false, false,
                                        false);
        CmpSystem sys(plain, benchmarkParams("zeus"));
        FaultArmGuard arm(plan, /*attempt=*/1);
        sys.warmup(2000);
        EXPECT_NO_THROW(sys.run(1000));
    }
}

TEST(FaultContainmentTest, SampledPointFaultIsContainedAndRetried)
{
    // A transient fast-forward fault inside a sampled point must be
    // contained by the batch runner and retried to a clean result,
    // exactly like any other site.
    auto specs = smallPoints();
    specs.resize(1);
    specs[0].config.sampling = SamplingPlan::parse("4000:1000:3");
    specs[0].lengths.measure_per_core = 0; // sampled runs ignore it

    RunPolicy clean;
    const BatchResult expected = runPointsChecked(specs, 2, clean);
    ASSERT_EQ(expected.failed(), 0u);

    RunPolicy faulty;
    faulty.max_attempts = 2;
    faulty.faults = FaultPlan::parse("sample.ff:5:p0");
    const BatchResult batch = runPointsChecked(specs, 2, faulty);

    EXPECT_EQ(batch.failed(), 0u);
    EXPECT_EQ(batch.outcomes[0].attempts, 2u);
    EXPECT_EQ(fingerprints(batch), fingerprints(expected));
}

// ----------------------------------------------- batch containment

TEST(FaultContainmentTest, TransientL2FillFaultIsRetriedToSuccess)
{
    const auto specs = smallPoints();

    RunPolicy clean;
    const BatchResult expected = runPointsChecked(specs, 2, clean);
    ASSERT_EQ(expected.failed(), 0u);

    // First attempt of point 0 throws at its 50th L2 fill; the retry
    // (attempt 2) runs fault-free and must reproduce the clean batch
    // byte-for-byte.
    RunPolicy faulty;
    faulty.max_attempts = 2;
    faulty.faults = FaultPlan::parse("l2.fill:50:p0");
    const BatchResult batch = runPointsChecked(specs, 2, faulty);

    EXPECT_EQ(batch.failed(), 0u);
    ASSERT_EQ(batch.outcomes.size(), 2u);
    EXPECT_EQ(batch.outcomes[0].status, PointStatus::Ok);
    EXPECT_EQ(batch.outcomes[0].attempts, 2u);
    EXPECT_EQ(batch.outcomes[1].status, PointStatus::Ok);
    EXPECT_EQ(batch.outcomes[1].attempts, 1u);
    EXPECT_EQ(fingerprints(batch), fingerprints(expected));
    EXPECT_EQ(batch.failureSummary(), "");
}

TEST(FaultContainmentTest, PermanentFaultFailsOnePointNotTheBatch)
{
    const auto specs = smallPoints();

    RunPolicy clean;
    const BatchResult expected = runPointsChecked(specs, 2, clean);

    RunPolicy faulty;
    faulty.max_attempts = 2;
    faulty.faults = FaultPlan::parse("l2.fill:50:all:p0");
    const BatchResult batch = runPointsChecked(specs, 2, faulty);

    EXPECT_EQ(batch.failed(), 1u);
    EXPECT_EQ(batch.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(batch.outcomes[0].error_kind, ErrorKind::Injected);
    EXPECT_EQ(batch.outcomes[0].attempts, 2u);
    EXPECT_NE(batch.outcomes[0].error.find("l2.fill"),
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
    // workload.gen faults on every attempt would be retried if the
    // runner honoured only the attempt bound; a WorkloadError must
    // instead fail fast. Use an unknown benchmark for a genuinely
    // deterministic failure.
    auto specs = smallPoints();
    specs[0].benchmark = "no-such-benchmark";

    RunPolicy policy;
    policy.max_attempts = 3;
    const BatchResult batch = runPointsChecked(specs, 2, policy);

    EXPECT_EQ(batch.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(batch.outcomes[0].error_kind, ErrorKind::Workload);
    EXPECT_EQ(batch.outcomes[0].attempts, 1u); // no retry burned
    EXPECT_EQ(batch.outcomes[1].status, PointStatus::Ok);
}

TEST(FaultContainmentTest, SeedSelectorHitsOnlyThatSeed)
{
    auto specs = smallPoints();
    specs.resize(1);

    RunPolicy faulty;
    faulty.max_attempts = 1;
    faulty.faults = FaultPlan::parse("workload.gen:1:all:s2");
    const BatchResult batch = runPointsChecked(specs, 2, faulty);

    // Seed 1 ran clean; seed 2 failed, sinking the point.
    EXPECT_EQ(batch.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(batch.outcomes[0].error_kind, ErrorKind::Injected);
    EXPECT_GT(batch.summaries[0].runs[0].instructions, 0.0);
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
    auto specs = smallPoints();
    specs.resize(1);
    specs[0].seeds = 1;
    // Keep the bound small so the test is quick; the livelocked loop
    // advances one cycle per iteration.
    specs[0].config.watchdog_cycles = 50000;

    RunPolicy policy;
    policy.max_attempts = 1;
    policy.faults = FaultPlan::parse("core.stall:1:all:stall");
    const BatchResult batch = runPointsChecked(specs, 1, policy);

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

TEST(WatchdogTest, WatchdogIsTransientSoRetryRunsClean)
{
    // A livelock injected only on attempt 1 trips the watchdog, which
    // is classified transient; attempt 2 must complete the point.
    auto specs = smallPoints();
    specs.resize(1);
    specs[0].seeds = 1;
    specs[0].config.watchdog_cycles = 50000;

    RunPolicy policy;
    policy.max_attempts = 2;
    policy.faults = FaultPlan::parse("core.stall:1:1:stall");
    const BatchResult batch = runPointsChecked(specs, 1, policy);

    EXPECT_EQ(batch.outcomes[0].status, PointStatus::Ok);
    EXPECT_EQ(batch.outcomes[0].attempts, 2u);
    EXPECT_GT(batch.summaries[0].cycles.mean, 0.0);
}

} // namespace
} // namespace cmpsim
