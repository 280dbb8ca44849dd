/**
 * @file
 * Golden stats fingerprints: short default-path runs whose
 * fnv1a(stats().dump()) must equal hashes recorded before the hot-path
 * data structures (event kernel, cache sets, value store, prefetcher
 * stream match) were last rewritten. Those rewrites are perf-only, so
 * any change in a hash here means simulated behaviour moved.
 *
 * determinism_check compares two runs of one build against each
 * other; this suite compares a build against fixed history. A failure
 * prints the new hash. Update a constant only with a change that
 * intentionally alters simulated results, and say so in CHANGES.md.
 */

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/common/fingerprint.h"
#include "src/core_api/cmp_system.h"

namespace cmpsim {
namespace {

/** Pin bandwidth of the timed benchmark configs, GB/s. */
constexpr double kPinGbps = 20.0;

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Warm, run and fingerprint one point with the env knobs cleared. */
std::string
fingerprint(SystemConfig cfg, const std::string &workload,
            std::uint64_t warm, std::uint64_t measure)
{
    CmpSystem sys(cfg, benchmarkParams(workload));
    sys.warmup(warm);
    sys.run(measure);
    std::ostringstream dump;
    sys.stats().dump(dump);
    return hex(fnv1a(dump.str()));
}

/** The default path's config: scale 4, compression on cache and link
 *  together. */
SystemConfig
defaultPath(unsigned cores, bool compression, bool prefetching,
            bool adaptive)
{
    return makeConfig(cores, 4, compression, compression, prefetching,
                      adaptive, kPinGbps);
}

TEST(GoldenFingerprintTest, ZeusEightCoresAllFeatures)
{
    const std::string got =
        fingerprint(defaultPath(8, true, true, true), "zeus", 40000, 20000);
    EXPECT_EQ(got, "f865c676eb58af5e") << "new hash: " << got;
}

TEST(GoldenFingerprintTest, MgridSixteenCoresBase)
{
    const std::string got = fingerprint(defaultPath(16, false, false, false),
                                        "mgrid", 40000, 20000);
    EXPECT_EQ(got, "57addb62c30b98f8") << "new hash: " << got;
}

TEST(GoldenFingerprintTest, JbbComprPref)
{
    const std::string got = fingerprint(defaultPath(8, true, true, false),
                                        "jbb", 30000, 20000);
    EXPECT_EQ(got, "40466dca62da94e1") << "new hash: " << got;
}

} // namespace
} // namespace cmpsim
