/**
 * @file
 * CPI-stack ablation: re-derive the *sign* of Table 5's
 * compression x prefetching interaction from cycle attribution
 * instead of end-to-end speedups.
 *
 * EQ 5 defines Interaction(P,C) through multiplicative speedups. To
 * first order that is an additive statement about CPI stacks:
 *
 *   Interaction > 0  <=>  CPI(P) + CPI(C) - CPI(base) - CPI(P,C) > 0
 *
 * and since the armed CPI-stack layer (DESIGN.md Section 9) splits
 * every CPI into leaf causes that sum exactly to elapsed cycles, the
 * left side decomposes exactly, leaf by leaf:
 *
 *   contribution(leaf) = leaf(P) + leaf(C) - leaf(base) - leaf(P,C)
 *
 * The table below prints those contributions per 1k instructions, so
 * the interaction's sign is visible as *which* leaves shrink when the
 * techniques combine — decompression exposure hidden behind prefetch
 * in-flight time, DRAM/link service cycles prefetches pull off the
 * critical path — rather than a single opaque percentage.
 *
 * Paper: Table 5 reports +21.5% (mgrid) and +15.0% (apache).
 */

#include "bench/bench_common.h"

#include <string>
#include <vector>

#include "src/core_api/cmp_system.h"
#include "src/obs/cpi_stack.h"

using namespace cmpsim;
using namespace cmpsim::bench;

namespace {

/** Attribution results of one armed (config, workload) run. */
struct ArmedPoint
{
    double cycles = 0.0;
    double instructions = 0.0;
    /** Per-leaf cycles summed over all cores. */
    std::uint64_t leaves[kCpiLeafCount] = {};
    std::uint64_t pf_hidden = 0;
    std::uint64_t journeys = 0;
};

ArmedPoint
runArmed(Cfg c, const std::string &wl)
{
    SystemConfig cfg = configFor(c);
    cfg.cpi_stack = true;
    const auto len = readEnvKnobs().lengths;

    CmpSystem sys(cfg, benchmarkParams(wl));
    sys.warmup(len.warmup_per_core);
    sys.run(len.measure_per_core);

    ArmedPoint p;
    p.cycles = static_cast<double>(sys.cycles());
    p.instructions = static_cast<double>(sys.instructions());
    for (unsigned core = 0; core < cfg.cores; ++core) {
        const CpiAccount *a = sys.cpiAccount(core);
        for (unsigned l = 0; l < kCpiLeafCount; ++l)
            p.leaves[l] += a->leafCycles(static_cast<CpiLeaf>(l));
        p.pf_hidden += a->pfHiddenCycles();
    }
    p.journeys = sys.missJournal()->recordsCompleted();
    return p;
}

/** Leaf cycles per 1k instructions. */
double
perKi(const ArmedPoint &p, unsigned leaf)
{
    return p.instructions == 0.0
               ? 0.0
               : static_cast<double>(p.leaves[leaf]) * 1000.0 /
                     p.instructions;
}

int
run()
{
    banner("CPI-stack ablation: Table 5 interaction sign from cycle "
           "attribution",
           "Table 5 interaction +21.5% (mgrid), +15.0% (apache)", 1);

    const Cfg cfgs[] = {Cfg::Base, Cfg::Pref, Cfg::Compr,
                        Cfg::ComprPref};
    const char *cfg_names[] = {"base", "pref", "compr", "both"};

    for (const std::string wl : {"mgrid", "apache"}) {
        ArmedPoint pts[4];
        for (std::size_t i = 0; i < 4; ++i)
            pts[i] = runArmed(cfgs[i], wl);
        const ArmedPoint &base = pts[0], &pref = pts[1],
                         &compr = pts[2], &both = pts[3];

        std::printf("%s\n", wl.c_str());
        std::printf("  %-6s | %10s %8s %12s %12s %10s\n", "config",
                    "cycles", "CPI", "decomp/ki", "pf_hidden/ki",
                    "journeys");
        for (std::size_t i = 0; i < 4; ++i) {
            const ArmedPoint &p = pts[i];
            std::printf(
                "  %-6s | %10.0f %8.3f %12.1f %12.1f %10llu\n",
                cfg_names[i], p.cycles,
                p.instructions == 0.0
                    ? 0.0
                    : p.cycles * static_cast<double>(configFor(cfgs[i]).cores) /
                          p.instructions,
                perKi(p, static_cast<unsigned>(CpiLeaf::Decompression)),
                p.instructions == 0.0
                    ? 0.0
                    : static_cast<double>(p.pf_hidden) * 1000.0 /
                          p.instructions,
                static_cast<unsigned long long>(p.journeys));
        }

        // Per-leaf interaction contributions (cycles per 1k instr):
        // positive means the leaf shrinks super-additively when the
        // techniques combine. The column sums exactly to the additive
        // CPI interaction because each stack sums to its run's cycles.
        std::printf("  interaction contributions "
                    "(leaf(P)+leaf(C)-leaf(base)-leaf(P,C), per 1k "
                    "instr):\n");
        double total = 0.0;
        for (unsigned l = 0; l < kCpiLeafCount; ++l) {
            const double contrib = perKi(pref, l) + perKi(compr, l) -
                                   perKi(base, l) - perKi(both, l);
            total += contrib;
            if (contrib != 0.0)
                std::printf("    %-16s %+9.1f\n",
                            cpiLeafName(static_cast<CpiLeaf>(l)),
                            contrib);
        }

        // EQ 5's multiplicative interaction from the same runs, for
        // the side-by-side sign check.
        const double sp = base.cycles / pref.cycles;
        const double sc = base.cycles / compr.cycles;
        const double sb = base.cycles / both.cycles;
        const double eq5 = (sb / (sp * sc) - 1.0) * 100.0;
        const auto &paper = paperRow(wl);
        std::printf("    %-16s %+9.1f  (sign %s)\n", "TOTAL", total,
                    total > 0 ? "positive" : "negative");
        std::printf("  EQ5 interaction %+.1f%%  (sign %s)   paper "
                    "%+.1f%%\n\n",
                    eq5, eq5 > 0 ? "positive" : "negative",
                    paper.interaction);
    }
    return 0;
}

} // namespace

int
main()
{
    return benchMain("ablation_cpi_stack", run);
}
