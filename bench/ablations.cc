/**
 * @file
 * Ablation bench for the design choices DESIGN.md calls out, run on
 * zeus and jbb (the workloads where prefetching helps / hurts most):
 *
 *  - per-core vs shared L2 prefetch engines (Beckmann & Wood [7]);
 *  - L1 prefetches triggering L2 prefetches (Section 2) on vs off;
 *  - extra victim tags for the uncompressed adaptive config (0/4/8);
 *  - decompression latency 0/5/10 cycles;
 *  - the 64-segment compressed-set variant of the paper's ambiguous
 *    geometry text (DESIGN.md Section 1).
 */

#include "bench/bench_common.h"

using namespace cmpsim;
using namespace cmpsim::bench;

namespace {

double
cyclesFor(SystemConfig cfg, const std::string &wl)
{
    return meanCycles(runSeeds(cfg, wl, readEnvKnobs().lengths, 1));
}

} // namespace

int
main()
{
    banner("Ablations: design choices behind the paper's mechanisms",
           "DESIGN.md Section 4");

    for (const auto &wl : {std::string("zeus"), std::string("jbb")}) {
        const double base = cyclesFor(configFor(Cfg::Base), wl);
        std::printf("--- %s (improvement vs base) ---\n", wl.c_str());

        auto cfg = configFor(Cfg::Pref);
        std::printf("  %-40s %+6.1f%%\n", "pref, per-core L2 engines",
                    pct(base, cyclesFor(cfg, wl)));
        cfg.shared_l2_prefetcher = true;
        std::printf("  %-40s %+6.1f%%\n", "pref, one shared L2 engine",
                    pct(base, cyclesFor(cfg, wl)));

        cfg = configFor(Cfg::Pref);
        cfg.l1_prefetch_triggers_l2 = false;
        std::printf("  %-40s %+6.1f%%\n",
                    "pref, L1 does not trigger L2",
                    pct(base, cyclesFor(cfg, wl)));

        for (unsigned tags : {0u, 4u, 8u}) {
            cfg = configFor(Cfg::Adaptive);
            cfg.extra_victim_tags = tags;
            std::printf("  adaptive, %u extra victim tags/set %12s "
                        "%+6.1f%%\n",
                        tags, "", pct(base, cyclesFor(cfg, wl)));
        }

        for (Cycle lat : {Cycle(0), Cycle(5), Cycle(10)}) {
            cfg = configFor(Cfg::Compr);
            cfg.decompression_latency = lat;
            std::printf("  compression, %2llu-cycle decompression %9s "
                        "%+6.1f%%\n",
                        static_cast<unsigned long long>(lat), "",
                        pct(base, cyclesFor(cfg, wl)));
        }

        cfg = configFor(Cfg::Compr);
        cfg.wide_compressed_sets = true;
        std::printf("  %-40s %+6.1f%%\n",
                    "compression, 64-segment sets",
                    pct(base, cyclesFor(cfg, wl)));

        cfg = configFor(Cfg::Compr);
        cfg.adaptive_compression = true;
        std::printf("  %-40s %+6.1f%%\n",
                    "compression, ISCA'04 adaptive policy",
                    pct(base, cyclesFor(cfg, wl)));
        std::printf("\n");
    }
    return 0;
}
