/**
 * @file
 * Reproduces Figure 8: classification of L2 misses and prefetches by
 * whether compression and/or prefetching avoids them. Six classes as
 * fractions of base demand misses (the 100% line): unavoidable,
 * avoided only by compression, avoided only by prefetching, avoided
 * by either (the negative-interaction intersection — paper: 8% for
 * apache, 7% for art, <=3% elsewhere), prefetches kept, and
 * prefetches avoided by compression (the positive interaction).
 *
 * Unlike the paper's global inclusion-exclusion estimate, the
 * classifier here intersects exact per-line miss counts recorded by
 * the L2 miss observer.
 */

#include "bench/bench_common.h"

#include "src/core_api/cmp_system.h"

using namespace cmpsim;
using namespace cmpsim::bench;

namespace {

MissProfile
profileOf(Cfg cfg, const std::string &wl)
{
    SystemConfig c = configFor(cfg);
    CmpSystem sys(c, benchmarkParams(wl));
    MissProfile profile;
    sys.l2().setMissObserver(
        [&](ReqType t, Addr line) { profile.record(t, line); });
    const auto len = readEnvKnobs().lengths;
    sys.warmup(len.warmup_per_core);
    sys.run(len.measure_per_core);
    return profile;
}

} // namespace

int
main()
{
    banner("Figure 8: L2 miss/prefetch classification (% of base "
           "demand misses)",
           "avoided-by-either intersection small: apache 8%, art 7%, "
           "<=3% elsewhere; compression absorbs many commercial "
           "prefetches", 1);

    std::printf("%-8s %8s %8s %8s %8s | %9s %9s\n", "bench", "unavoid",
                "only-C", "only-P", "either", "pf-kept", "pf-avoided");
    for (const auto &wl : benchmarkNames()) {
        const auto base = profileOf(Cfg::Base, wl);
        const auto with_c = profileOf(Cfg::CacheCompr, wl);
        const auto with_p = profileOf(Cfg::Pref, wl);
        const auto with_cp = profileOf(Cfg::ComprPref, wl);
        const auto cls = classifyMisses(base, with_c, with_p, with_cp);
        std::printf("%-8s %7.1f%% %7.1f%% %7.1f%% %7.1f%% | %8.1f%% "
                    "%8.1f%%\n",
                    wl.c_str(), cls.unavoidable * 100,
                    cls.only_compression * 100,
                    cls.only_prefetching * 100, cls.either * 100,
                    cls.prefetches_kept * 100,
                    cls.prefetches_avoided * 100);
    }
    return 0;
}
