/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: the
 * standard configuration matrix, environment-controlled run lengths,
 * fixed-width table printing, and the paper's published numbers for
 * side-by-side comparison.
 *
 * Environment knobs (see src/core_api/env_knobs.h):
 *   CMPSIM_SCALE   capacity divisor (default 4; 1 = paper full size)
 *   CMPSIM_WARMUP  functional warmup instructions per core (400k)
 *   CMPSIM_MEASURE timed instructions per core (50k)
 *   CMPSIM_SEEDS   seeds per point (2)
 */

#ifndef CMPSIM_BENCH_BENCH_COMMON_H
#define CMPSIM_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/sim_error.h"
#include "src/core_api/env_knobs.h"
#include "src/core_api/experiment.h"
#include "src/core_api/parallel_runner.h"

namespace cmpsim::bench {

/** The paper's standard configurations. */
enum class Cfg
{
    Base,       ///< no compression, no prefetching
    CacheCompr, ///< cache compression only
    LinkCompr,  ///< link compression only
    Compr,      ///< cache + link compression
    Pref,       ///< stride prefetching (non-adaptive)
    Adaptive,   ///< adaptive prefetching
    ComprPref,  ///< compression + prefetching
    ComprAdapt, ///< compression + adaptive prefetching
};

inline SystemConfig
configFor(Cfg c, unsigned cores = 8, double bw_gbps = 20.0)
{
    const unsigned scale = readEnvKnobs().scale;
    switch (c) {
      case Cfg::Base:
        return makeConfig(cores, scale, false, false, false, false,
                          bw_gbps);
      case Cfg::CacheCompr:
        return makeConfig(cores, scale, true, false, false, false,
                          bw_gbps);
      case Cfg::LinkCompr:
        return makeConfig(cores, scale, false, true, false, false,
                          bw_gbps);
      case Cfg::Compr:
        return makeConfig(cores, scale, true, true, false, false,
                          bw_gbps);
      case Cfg::Pref:
        return makeConfig(cores, scale, false, false, true, false,
                          bw_gbps);
      case Cfg::Adaptive:
        return makeConfig(cores, scale, false, false, true, true,
                          bw_gbps);
      case Cfg::ComprPref:
        return makeConfig(cores, scale, true, true, true, false,
                          bw_gbps);
      case Cfg::ComprAdapt:
        return makeConfig(cores, scale, true, true, true, true,
                          bw_gbps);
    }
    return makeConfig(cores, scale, false, false, false, false, bw_gbps);
}

/** Percentage improvement (speedup - 1) * 100. */
inline double
pct(double base_cycles, double enhanced_cycles)
{
    return (base_cycles / enhanced_cycles - 1.0) * 100.0;
}

/** Print the standard bench banner; @p seeds is the seed count the
 *  bench runs per point. */
inline void
banner(const char *title, const char *paper_ref, unsigned seeds)
{
    const EnvKnobs env = readEnvKnobs();
    const RunLengths &len = env.lengths;
    std::printf("=== %s ===\n", title);
    std::printf("paper: %s\n", paper_ref);
    std::printf("setup: scale=%u (L2 %u KB), warmup=%llu, "
                "measure=%llu instr/core, seeds=%u\n\n",
                env.scale, 4096 / env.scale,
                static_cast<unsigned long long>(len.warmup_per_core),
                static_cast<unsigned long long>(len.measure_per_core),
                seeds);
}

/**
 * A bench's main(): check the standard config first, so a bad
 * CMPSIM_SCALE fails before banner() divides by it, then run @p body.
 * A SimError (a malformed knob, an impossible config, a refused
 * point) prints one "<bench>: error: [kind] ..." line to stderr and
 * exits 2; every other exit status is @p body's own.
 */
inline int
benchMain(const char *bench, int (*body)())
{
    try {
        configFor(Cfg::Base).validate();
        return body();
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s: error: %s\n", bench, e.what());
        return 2;
    }
}

/** Paper's Table 5 rows (speedup %, 8-core CMP, 20 GB/s). */
struct Table5Row
{
    const char *name;
    double pref;
    double compr;
    double compr_pref;
    double adapt_compr;
    double interaction;
};

inline const std::vector<Table5Row> &
paperTable5()
{
    static const std::vector<Table5Row> rows = {
        {"apache", -0.9, 20.5, 37.3, 39.2, 15.0},
        {"zeus", 21.3, 9.7, 50.7, 50.8, 13.2},
        {"oltp", 0.3, 5.6, 9.9, 13.1, 3.8},
        {"jbb", -24.5, 5.9, -6.5, 1.7, 16.9},
        {"art", 6.4, 3.1, 10.6, 10.7, 0.9},
        {"apsi", 13.6, 4.2, 15.5, 16.1, -2.5},
        {"fma3d", -3.4, 22.6, 18.6, 18.5, 0.2},
        {"mgrid", 18.9, 2.9, 48.7, 49.9, 21.5},
    };
    return rows;
}

inline const Table5Row &
paperRow(const std::string &name)
{
    for (const auto &r : paperTable5()) {
        if (name == r.name)
            return r;
    }
    static const Table5Row none{"?", 0, 0, 0, 0, 0};
    return none;
}

/** Paper's Table 4 (prefetch rate / coverage% / accuracy%). */
struct Table4Row
{
    const char *name;
    double l1i_rate, l1i_cov, l1i_acc;
    double l1d_rate, l1d_cov, l1d_acc;
    double l2_rate, l2_cov, l2_acc;
};

inline const std::vector<Table4Row> &
paperTable4()
{
    static const std::vector<Table4Row> rows = {
        {"apache", 4.9, 16.4, 42.0, 6.1, 8.8, 55.5, 10.5, 37.7, 57.9},
        {"zeus", 7.1, 14.5, 38.9, 5.5, 17.7, 79.2, 8.2, 44.4, 56.0},
        {"oltp", 13.5, 20.9, 44.8, 2.0, 6.6, 58.0, 2.4, 26.4, 41.5},
        {"jbb", 1.8, 24.6, 49.6, 4.2, 23.1, 60.3, 5.5, 34.2, 32.4},
        {"art", 0.05, 9.4, 24.1, 56.3, 30.9, 81.3, 49.7, 56.0, 85.0},
        {"apsi", 0.04, 15.7, 30.7, 8.5, 25.5, 96.9, 4.6, 95.8, 97.6},
        {"fma3d", 0.06, 7.5, 14.4, 7.3, 27.5, 80.9, 8.8, 44.6, 73.5},
        {"mgrid", 0.06, 15.5, 26.6, 8.4, 80.2, 94.2, 6.2, 89.9, 81.9},
    };
    return rows;
}

inline const Table4Row &
paperTable4Row(const std::string &name)
{
    for (const auto &r : paperTable4()) {
        if (name == r.name)
            return r;
    }
    static const Table4Row none{"?", 0, 0, 0, 0, 0, 0, 0, 0, 0};
    return none;
}

/** Paper Figure 4 bandwidth demand (GB/s), base config, where the
 *  text states values; others are approximate figure read-offs. */
inline double
paperBandwidthDemand(const std::string &name)
{
    if (name == "apache")
        return 8.8;
    if (name == "zeus")
        return 7.4; // approx (figure)
    if (name == "oltp")
        return 5.0;
    if (name == "jbb")
        return 6.1; // approx (figure)
    if (name == "art")
        return 7.6;
    if (name == "apsi")
        return 13.0; // approx (figure)
    if (name == "fma3d")
        return 27.7;
    if (name == "mgrid")
        return 15.5; // approx (figure)
    return 0.0;
}

/** Describe one (cfg, workload) point with the standard lengths/seeds,
 *  for batch submission to runPoints(). */
inline PointSpec
pointSpec(Cfg cfg, const std::string &wl, unsigned cores = 8,
          double bw = 20.0, bool infinite_bw = false, unsigned seeds = 0)
{
    const EnvKnobs env = readEnvKnobs();
    PointSpec spec;
    spec.config = configFor(cfg, cores, bw);
    spec.config.infinite_bandwidth = infinite_bw;
    spec.benchmark = wl;
    spec.lengths = env.lengths;
    spec.seeds = seeds == 0 ? env.seeds : seeds;
    return spec;
}

} // namespace cmpsim::bench

#endif // CMPSIM_BENCH_BENCH_COMMON_H
