/**
 * @file
 * Statistical sampling contract (DESIGN.md §14): the plan
 * grammar and validation, fast-forward instruction conservation,
 * detail-interval stat isolation, sampled-run determinism across
 * repeats, the MatrixSampler's leader-equivalence guarantee, and
 * runOnce()'s refusal of a plan.
 */

#include "src/sample/matrix_sampler.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/sim_error.h"
#include "src/core_api/cmp_system.h"
#include "src/core_api/experiment.h"
#include "src/workload/workload_params.h"

namespace cmpsim {
namespace {

/** Small full-feature config; sampling plans are set per test. */
SystemConfig
smallConfig()
{
    SystemConfig cfg = makeConfig(/*cores=*/2, /*scale=*/8,
                                  /*cache_compression=*/true,
                                  /*link_compression=*/true,
                                  /*prefetching=*/true,
                                  /*adaptive=*/false);
    cfg.seed = 4242;
    return cfg;
}

/** Stats fingerprint of a finished system, exactly as the
 *  determinism gate hashes it. */
std::uint64_t
statsHash(CmpSystem &sys)
{
    std::ostringstream out;
    sys.stats().dump(out);
    out << "cycles " << sys.cycles() << "\n";
    out << "instructions " << sys.instructions() << "\n";
    return fnv1a(out.str());
}

/** The plan of @p sys's config, driven as a matrix of one. */
SamplingResult
runAlone(CmpSystem &sys)
{
    return MatrixSampler({&sys}).run().front();
}

/** Bit-level fingerprint of a result's per-interval samples. */
std::uint64_t
samplesHash(const SamplingResult &r)
{
    std::ostringstream out;
    out.precision(17);
    for (const IntervalSample &s : r.samples) {
        out << s.cycles << " " << s.instructions << " "
            << s.compression_ratio << "\n";
    }
    return fnv1a(out.str());
}

// ------------------------------------------------------ plan grammar

TEST(SamplingPlanTest, ParsesBareTriple)
{
    const SamplingPlan p = SamplingPlan::parse("100000:5000:30");
    EXPECT_EQ(p.ff_per_core, 100000u);
    EXPECT_EQ(p.detail_per_core, 5000u);
    EXPECT_EQ(p.max_intervals, 30u);
    EXPECT_TRUE(p.armed());
    // Without a warm suffix, the whole fast-forward phase warms.
    EXPECT_EQ(p.warm_per_core, SamplingPlan::kWarmAll);
    EXPECT_EQ(p.warmPerCore(), 100000u);
}

TEST(SamplingPlanTest, ParsesWarmSuffix)
{
    const SamplingPlan p = SamplingPlan::parse("100000:5000:30:warm20000");
    EXPECT_EQ(p.warm_per_core, 20000u);
    EXPECT_EQ(p.warmPerCore(), 20000u);
}

TEST(SamplingPlanTest, WarmTailClampsToFastForwardLength)
{
    const SamplingPlan p =
        SamplingPlan::parse("10000:5000:4:warm999999");
    EXPECT_EQ(p.warm_per_core, 999999u);
    EXPECT_EQ(p.warmPerCore(), 10000u);
}

TEST(SamplingPlanTest, DefaultPlanIsDisarmed)
{
    EXPECT_FALSE(SamplingPlan{}.armed());
    const SamplingPlan zero = SamplingPlan::parse("0:5000:0");
    EXPECT_FALSE(zero.armed());
}

TEST(SamplingPlanTest, MalformedSpecsThrowConfigError)
{
    EXPECT_THROW(SamplingPlan::parse(""), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:x"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30:ci"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30:warm"),
                 ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30:fast"),
                 ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30junk"),
                 ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30:ci5:2"),
                 ConfigError);
    // No stopping-rule suffix: a plan always runs all n intervals.
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30:ci2.5:warm20000"),
                 ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30:warm20000:ci2.5"),
                 ConfigError);
    // Counts are plain digits that fit: no sign, space or '+', and no
    // wrap past 2^64.
    EXPECT_THROW(SamplingPlan::parse("-5:100:3"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("5: 100:3"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("5:100:+3"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("18446744073709551616:100:3"),
                 ConfigError);
    EXPECT_THROW(SamplingPlan::parse("5:100:3:warm-1"), ConfigError);
}

TEST(SamplingPlanTest, ValidateRejectsUnmeasurablePlans)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("8000:1:3");
    cfg.sampling.detail_per_core = 0; // pure fast-forward
    EXPECT_THROW(cfg.validate(), ConfigError);
}

// --------------------------------------------- plan execution basics

TEST(SamplingRunTest, ConservesFastForwardInstructions)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("6000:2000:4:warm2000");
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    const SamplingResult res = runAlone(sys);

    EXPECT_EQ(res.intervals, 4u);
    // Every interval fast-forwards ff_per_core on each core.
    const std::uint64_t expected_ff = 6000ull * 2 * 4;
    EXPECT_EQ(res.ff_instructions, expected_ff);
    EXPECT_EQ(sys.stats().counter("sample.ff_instructions"),
              expected_ff);
    // The skip/warm split: 4000 of each 6000 skip, 2000 warm.
    EXPECT_EQ(sys.stats().counter("sample.ff_skip_instructions"),
              4000ull * 2 * 4);
    // The conservation audit (sample.conservation) must hold.
    EXPECT_TRUE(sys.audits().check().empty());
}

TEST(SamplingRunTest, DetailTotalsExcludeFastForward)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("6000:2000:4");
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    const SamplingResult res = runAlone(sys);

    // The measured instruction total covers exactly the detailed
    // windows (a run() window can overshoot its budget by at most a
    // few instructions per core), never the 48k fast-forwarded ones.
    const double budget = 2000.0 * 2 * 4;
    EXPECT_GE(res.detail_instructions, budget);
    EXPECT_LT(res.detail_instructions, budget + 100 * 2 * 4);

    // The per-interval retired-counter deltas agree with the total.
    double retired = 0;
    for (unsigned c = 0; c < 2; ++c) {
        retired += static_cast<double>(res.totals.counter(
            "core." + std::to_string(c) + ".retired"));
    }
    EXPECT_EQ(retired, res.detail_instructions);

    // Every measured interval has a sample, and the compression-ratio
    // summary covers all of them.
    EXPECT_EQ(res.samples.size(), 4u);
    EXPECT_EQ(res.compression_ratio.n, 4u);
    EXPECT_GT(res.detail_cycles, 0.0);
    EXPECT_GT(res.compression_ratio.mean, 0.0);
}

// ---------------------------------------------------- determinism

TEST(SamplingDeterminismTest, RepeatRunsAreByteIdentical)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("6000:2000:3:warm2000");

    std::uint64_t stats[2];
    std::uint64_t samples[2];
    for (int i = 0; i < 2; ++i) {
        CmpSystem sys(cfg, benchmarkParams("apsi"));
        const SamplingResult res = runAlone(sys);
        stats[i] = statsHash(sys);
        samples[i] = samplesHash(res);
    }
    EXPECT_EQ(stats[0], stats[1]);
    EXPECT_EQ(samples[0], samples[1]);
}

// ------------------------------------------------- matrix sampler

TEST(MatrixSamplerTest, LeaderIsByteIdenticalToStandaloneRun)
{
    SystemConfig base = smallConfig();
    base.sampling = SamplingPlan::parse("6000:2000:3:warm2000");
    SystemConfig pref = base;
    pref.prefetching = false; // a genuinely different follower config

    // Independent reference: the leader's exact config driven by
    // hand on its own, each fast-forward one unsplit skip+warm call
    // where the matrix splits it into a shared skip and a warm tail.
    std::uint64_t want_stats = 0;
    std::uint64_t want_samples = 0;
    {
        CmpSystem sys(base, benchmarkParams("zeus"));
        const SamplingPlan &plan = base.sampling;
        SamplingResult ref;
        for (unsigned i = 0; i < plan.max_intervals; ++i) {
            sys.fastForward(plan.ff_per_core, plan.warmPerCore());
            sys.run(plan.detail_per_core);
            ref.samples.push_back(
                {.cycles = static_cast<double>(sys.cycles()),
                 .instructions = static_cast<double>(sys.instructions()),
                 .compression_ratio = sys.l2().compressionRatio()});
        }
        want_stats = statsHash(sys);
        want_samples = samplesHash(ref);
    }

    CmpSystem lead(base, benchmarkParams("zeus"));
    CmpSystem follow(pref, benchmarkParams("zeus"));
    const auto results = MatrixSampler({&lead, &follow}).run();
    ASSERT_EQ(results.size(), 2u);

    // Splitting the fast-forward, journaling the leader's skips and
    // sharing them must not perturb the leader's own execution in any
    // way.
    EXPECT_EQ(statsHash(lead), want_stats);
    EXPECT_EQ(samplesHash(results[0]), want_samples);

    // Followers measure the full plan on the same workload windows.
    EXPECT_EQ(results[1].intervals, 3u);
    EXPECT_EQ(results[1].samples.size(), 3u);
    EXPECT_GT(results[1].detail_cycles, 0.0);
    EXPECT_NE(samplesHash(results[1]), samplesHash(results[0]));

    // Both systems' invariant audits (including fast-forward
    // conservation on the adopted skips) hold.
    EXPECT_TRUE(lead.audits().check().empty());
    EXPECT_TRUE(follow.audits().check().empty());
}

TEST(MatrixSamplerTest, MatrixRunsAreDeterministic)
{
    SystemConfig base = smallConfig();
    base.sampling = SamplingPlan::parse("6000:2000:3:warm2000");
    SystemConfig compr = base;
    compr.cache_compression = false;
    compr.link_compression = false;

    std::uint64_t follower_hash[2];
    for (int i = 0; i < 2; ++i) {
        CmpSystem lead(base, benchmarkParams("apsi"));
        CmpSystem follow(compr, benchmarkParams("apsi"));
        const auto results = MatrixSampler({&lead, &follow}).run();
        follower_hash[i] =
            samplesHash(results[1]) ^ statsHash(follow);
    }
    EXPECT_EQ(follower_hash[0], follower_hash[1]);
}

// ------------------------------------------------- experiment layer

TEST(SampledExperimentTest, RunOnceRefusesASamplingPlan)
{
    // A plan runs only through MatrixSampler: a runner point that
    // arms one fails [config] before it simulates anything.
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("6000:2000:3");
    RunLengths lengths;
    lengths.warmup_per_core = 2000;
    lengths.measure_per_core = 2000;
    try {
        runOnce(cfg, "zeus", lengths);
        FAIL() << "runOnce() accepted a sampling plan";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.context(), "config.sampling");
    }
}

} // namespace
} // namespace cmpsim
