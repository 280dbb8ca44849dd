/**
 * @file
 * Error-taxonomy contract (DESIGN.md §8): kinds, what() structure,
 * the throwing cmpsim_panic reporter, and SystemConfig::validate()
 * rejections.
 */

#include "src/common/sim_error.h"

#include <gtest/gtest.h>

#include <string>

#include "src/common/log.h"
#include "src/core_api/cmp_system.h"
#include "src/workload/workload_params.h"
#include "tests/env_guard.h"

namespace cmpsim {
namespace {

TEST(SimErrorTest, WhatCarriesKindContextAndMessage)
{
    const ConfigError e("config.cores", "cores must be 1..16, got 99");
    EXPECT_EQ(std::string(e.what()),
              "[config] config.cores: cores must be 1..16, got 99");
    EXPECT_EQ(e.kind(), ErrorKind::Config);
    EXPECT_EQ(e.context(), "config.cores");
}

TEST(SimErrorTest, KindNamesAreStable)
{
    EXPECT_STREQ(errorKindName(ErrorKind::Config), "config");
    EXPECT_STREQ(errorKindName(ErrorKind::Workload), "workload");
    EXPECT_STREQ(errorKindName(ErrorKind::Invariant), "invariant");
    EXPECT_STREQ(errorKindName(ErrorKind::Watchdog), "watchdog");
    EXPECT_STREQ(errorKindName(ErrorKind::Internal), "internal");
}

TEST(SimErrorTest, HierarchyIsCatchableAsSimError)
{
    try {
        throw WatchdogTimeout("cmp_system.run", "no progress");
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Watchdog);
    }
}

TEST(SimErrorTest, PanicThrowsInvariantErrorWithFileLineContext)
{
    try {
        cmpsim_panic("counter drifted by %d", 3);
        FAIL() << "panic did not throw";
    } catch (const InvariantError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("counter drifted by 3"), std::string::npos)
            << what;
        EXPECT_NE(what.find("sim_error_test.cc"), std::string::npos)
            << what;
    }
}

TEST(SimErrorTest, UnknownBenchmarkIsWorkloadError)
{
    try {
        benchmarkParams("no-such-benchmark");
        FAIL() << "benchmarkParams did not throw";
    } catch (const WorkloadError &e) {
        EXPECT_NE(std::string(e.what()).find("no-such-benchmark"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------------- SystemConfig::validate

TEST(ConfigValidateTest, PaperConfigMatrixPasses)
{
    for (const bool compress : {false, true}) {
        for (const bool prefetch : {false, true}) {
            const SystemConfig c = makeConfig(8, 4, compress, compress,
                                              prefetch, prefetch);
            EXPECT_NO_THROW(c.validate());
        }
    }
}

TEST(ConfigValidateTest, RejectsZeroAndOversizedCores)
{
    SystemConfig c = makeConfig(8, 4, false, false, false, false);
    c.cores = 0;
    EXPECT_THROW(c.validate(), ConfigError);
    c.cores = 17;
    EXPECT_THROW(c.validate(), ConfigError);
}

TEST(ConfigValidateTest, RejectsTagsAndStartupDepthPastInlineBounds)
{
    // Adaptive prefetching adds the victim tags to every set.
    SystemConfig c = makeConfig(8, 4, false, false, true, true);
    c.extra_victim_tags = kMaxSetTags - 8;
    EXPECT_NO_THROW(c.validate());
    c.extra_victim_tags = kMaxSetTags - 7;
    EXPECT_THROW(c.validate(), ConfigError);

    c = makeConfig(8, 4, false, false, true, false);
    c.l2_startup_prefetches = kMaxStartupPrefetches;
    EXPECT_NO_THROW(c.validate());
    c.l2_startup_prefetches = kMaxStartupPrefetches + 1;
    EXPECT_THROW(c.validate(), ConfigError);
}

TEST(ConfigValidateTest, RejectsZeroScale)
{
    SystemConfig c = makeConfig(8, 4, false, false, false, false);
    c.scale = 0;
    EXPECT_THROW(c.validate(), ConfigError);
}

TEST(ConfigValidateTest, RejectsNonsensePinBandwidth)
{
    SystemConfig c = makeConfig(8, 4, false, false, false, false);
    c.pin_bandwidth_gbps = 0.0;
    EXPECT_THROW(c.validate(), ConfigError);
    c.pin_bandwidth_gbps = -5.0;
    EXPECT_THROW(c.validate(), ConfigError);
    // Below the 0.1 GB/s floor; at 1e-18 one message outlasts a Cycle.
    c.pin_bandwidth_gbps = 1e-18;
    EXPECT_THROW(c.validate(), ConfigError);
    c.pin_bandwidth_gbps = 0.05;
    EXPECT_THROW(c.validate(), ConfigError);
    // Infinite-bandwidth mode removes queuing, but every message still
    // serializes at the pin rate, so the same range applies.
    c.infinite_bandwidth = true;
    EXPECT_THROW(c.validate(), ConfigError);
    c.pin_bandwidth_gbps = 0.0;
    EXPECT_THROW(c.validate(), ConfigError);
}

TEST(ConfigValidateTest, ErrorNamesTheOffendingKnob)
{
    SystemConfig c = makeConfig(8, 4, false, false, false, false);
    c.cores = 99;
    try {
        c.validate();
        FAIL() << "validate() did not throw";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.context(), "config.cores");
    }
}

TEST(ConfigValidateTest, BadConfigIsRejectedAtSystemBuild)
{
    SystemConfig c = makeConfig(8, 4, true, true, true, true);
    c.scale = 0;
    EXPECT_THROW(CmpSystem(c, benchmarkParams("zeus")), ConfigError);
}

TEST(ConfigValidateTest, MalformedEnvKnobIsRejectedAtSystemBuild)
{
    // Garbage in a knob makeConfig() applies must not silently parse
    // as 0 (for CMPSIM_WATCHDOG, a disabled livelock watchdog).
    EnvGuard watchdog("CMPSIM_WATCHDOG", "abc");
    EXPECT_THROW(makeConfig(2, 8, false, false, false, false),
                 ConfigError);
}

} // namespace
} // namespace cmpsim
