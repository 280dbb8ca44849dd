/**
 * @file
 * readEnvKnobs(), the one place configuration enters from the
 * environment: one parse rule per value type (an explicit 0 is a
 * value, empty is unset, booleans are 0 or 1), and makeConfig()
 * applies the knobs while a field set afterwards wins.
 */

#include "src/core_api/env_knobs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>

#include "src/common/sim_error.h"
#include "src/core_api/parallel_runner.h"
#include "tests/env_guard.h"

namespace cmpsim {
namespace {

/** The context of the ConfigError readEnvKnobs() throws, or "". */
std::string
errorContext()
{
    try {
        readEnvKnobs();
    } catch (const ConfigError &e) {
        return e.context();
    }
    return "";
}

SystemConfig
smallConfig()
{
    return makeConfig(/*cores=*/2, /*scale=*/8,
                      /*cache_compression=*/true,
                      /*link_compression=*/true,
                      /*prefetching=*/true,
                      /*adaptive=*/false);
}

TEST(EnvKnobsTest, UnsetReturnsFallback)
{
    EnvGuard warmup("CMPSIM_WARMUP", nullptr);
    EnvGuard measure("CMPSIM_MEASURE", nullptr);
    EnvGuard watchdog("CMPSIM_WATCHDOG", nullptr);
    const EnvKnobs env = readEnvKnobs();
    // The documented defaults, which live in RunLengths{}.
    EXPECT_EQ(env.lengths.warmup_per_core, 400000u);
    EXPECT_EQ(env.lengths.measure_per_core, 50000u);
    EXPECT_FALSE(env.watchdog.has_value());
}

TEST(EnvKnobsTest, EmptyReturnsFallback)
{
    // Empty means unset for every value type.
    EnvGuard measure("CMPSIM_MEASURE", "");
    EnvGuard cpi("CMPSIM_CPISTACK", "");
    EnvGuard journal("CMPSIM_JOURNAL", "");
    const EnvKnobs env = readEnvKnobs();
    EXPECT_EQ(env.lengths.measure_per_core,
              RunLengths{}.measure_per_core);
    EXPECT_FALSE(env.cpi_stack.has_value());
    EXPECT_TRUE(env.journal.empty());
}

TEST(EnvKnobsTest, ParsesValue)
{
    EnvGuard measure("CMPSIM_MEASURE", "400000");
    EXPECT_EQ(readEnvKnobs().lengths.measure_per_core, 400000u);

    // Each knob takes up to its own type's maximum.
    EnvGuard warmup("CMPSIM_WARMUP", "18446744073709551615");
    EnvGuard seeds("CMPSIM_SEEDS", "4294967295");
    const EnvKnobs env = readEnvKnobs();
    EXPECT_EQ(env.lengths.warmup_per_core,
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(env.seeds, std::numeric_limits<unsigned>::max());
}

TEST(EnvKnobsTest, ExplicitZeroIsAValueNotAnError)
{
    EnvGuard warmup("CMPSIM_WARMUP", "0");
    EnvGuard audit("CMPSIM_AUDIT", "0");
    const EnvKnobs env = readEnvKnobs();
    EXPECT_EQ(env.lengths.warmup_per_core, 0u);
    ASSERT_TRUE(env.audit.has_value());
    EXPECT_EQ(*env.audit, 0u);
}

TEST(EnvKnobsTest, NonNumericIsFatal)
{
    // Digits only, and within the knob's type: a minus sign (which
    // strtoull wraps), a leading space or '+', and a value too large
    // for the destination (which a cast would truncate) all fail.
    const std::pair<const char *, const char *> bad[] = {
        {"CMPSIM_SEEDS", "fast"},
        {"CMPSIM_WARMUP", "-1"},
        {"CMPSIM_WARMUP", " 5"},
        {"CMPSIM_WARMUP", "+5"},
        {"CMPSIM_WARMUP", "18446744073709551616"},
        {"CMPSIM_SEEDS", "4294967298"},
    };
    for (const auto &[knob, value] : bad) {
        EnvGuard guard(knob, value);
        EXPECT_EQ(errorContext(), knob) << knob << "=" << value;
    }
}

TEST(EnvKnobsTest, TrailingGarbageIsFatal)
{
    EnvGuard jobs("CMPSIM_JOBS", "8threads");
    EXPECT_EQ(errorContext(), "CMPSIM_JOBS");
}

TEST(EnvKnobsTest, JobsZeroMeansHardwareAuto)
{
    EnvGuard jobs("CMPSIM_JOBS", "3");
    EXPECT_EQ(readEnvKnobs().jobs, 3u);

    // 0 (like unset) leaves the worker count to the hardware, and a
    // batch still gets at least one worker.
    EnvGuard zero("CMPSIM_JOBS", "0");
    EXPECT_EQ(readEnvKnobs().jobs, 0u);
    PointSpec spec;
    spec.config = smallConfig();
    spec.benchmark = "zeus";
    spec.lengths.warmup_per_core = 0;
    spec.lengths.measure_per_core = 500;
    const BatchResult batch = runPointsChecked({spec});
    EXPECT_EQ(batch.failed(), 0u);
}

TEST(EnvKnobsTest, ExplicitZeroWarmupRunsEndToEnd)
{
    // CMPSIM_WARMUP=0 must mean "no warmup", not "fall back to the
    // 400k default" — and a zero-warmup experiment must complete and
    // publish sane metrics, cold caches and all.
    RunLengths lengths;
    {
        EnvGuard warmup("CMPSIM_WARMUP", "0");
        EnvGuard measure("CMPSIM_MEASURE", "2000");
        lengths = readEnvKnobs().lengths;
    }
    EXPECT_EQ(lengths.warmup_per_core, 0u);
    EXPECT_EQ(lengths.measure_per_core, 2000u);

    PointSpec spec;
    spec.config = smallConfig();
    spec.benchmark = "zeus";
    spec.lengths = lengths;
    const MetricSummary cold = runPoints({spec}).front();
    EXPECT_GT(cold.runs.front().instructions, 0.0);
    EXPECT_GT(cold.runs.front().ipc, 0.0);

    // A warmed run of the same point must differ: if the two agree,
    // the zero was silently replaced by a default somewhere below.
    spec.lengths.warmup_per_core = 5000;
    const MetricSummary warm = runPoints({spec}).front();
    EXPECT_NE(cold.runs.front().cycles, warm.runs.front().cycles);
}

TEST(EnvKnobsTest, BooleanKnobsAcceptOnlyZeroAndOne)
{
    for (const char *knob : {"CMPSIM_CPISTACK", "CMPSIM_PROF"}) {
        for (const char *bad : {"off", "yes", "2"}) {
            EnvGuard guard(knob, bad);
            EXPECT_EQ(errorContext(), knob) << knob << "=" << bad;
        }
    }
    EnvGuard cpi("CMPSIM_CPISTACK", "0");
    EnvGuard prof("CMPSIM_PROF", "1");
    const EnvKnobs env = readEnvKnobs();
    EXPECT_EQ(env.cpi_stack, std::optional<bool>(false));
    EXPECT_TRUE(env.prof);
}

TEST(EnvKnobsTest, MakeConfigAppliesKnobsAndLaterFieldsWin)
{
    {
        EnvGuard audit("CMPSIM_AUDIT", "5000");
        EnvGuard watchdog("CMPSIM_WATCHDOG", "0");
        SystemConfig cfg = smallConfig();
        EXPECT_EQ(cfg.audit_interval, 5000u);
        EXPECT_TRUE(cfg.l2Params().verify_fill_roundtrip);
        EXPECT_EQ(cfg.watchdog_cycles, 0u);

        // The system keeps what the caller set after makeConfig().
        cfg.audit_interval = 10000;
        const CmpSystem sys(cfg, benchmarkParams("zeus"));
        EXPECT_EQ(sys.config().audit_interval, 10000u);
    }
    EnvGuard off("CMPSIM_AUDIT", "0");
    const SystemConfig cfg = smallConfig();
    EXPECT_EQ(cfg.audit_interval, 0u);
    EXPECT_FALSE(cfg.l2Params().verify_fill_roundtrip);
}

TEST(EnvKnobsTest, AnyMalformedKnobFailsMakeConfig)
{
    {
        // A name the library no longer reads is not a knob: no error,
        // and no sampling plan reaches the config.
        EnvGuard sampling("CMPSIM_SAMPLING", "not-a-plan");
        EnvGuard report("CMPSIM_REPORT", "report.json");
        EnvGuard progress("CMPSIM_PROGRESS", "yes");
        EnvGuard trace("CMPSIM_TRACE", "trace.json");
        EXPECT_NO_THROW(readEnvKnobs());
        SystemConfig cfg;
        EXPECT_NO_THROW(cfg = smallConfig());
        EXPECT_FALSE(cfg.sampling.armed());
    }
    // makeConfig() needs none of the runner knobs, but a malformed
    // one still fails the first read of the environment.
    EnvGuard jobs("CMPSIM_JOBS", "abc");
    EXPECT_THROW(smallConfig(), ConfigError);
}

} // namespace
} // namespace cmpsim
