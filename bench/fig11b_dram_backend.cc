/**
 * @file
 * Figure 11 ablation: the banked DRAM timing model (src/dram/) versus
 * the paper's fixed 400-cycle memory. Three questions:
 *
 *  1. Does the Interaction(Pref, Compr) coefficient survive when the
 *     constant-latency memory is replaced by banks, row buffers and
 *     FR-FCFS scheduling? (The paper's effect should not depend on the
 *     simplification — "Validating Simplified Processor Models".)
 *  2. Row locality: a stride-prefetch workload must show a clearly
 *     higher row-hit rate than a random-access variant of the same
 *     workload, and FCFS scheduling must forfeit part of the hits
 *     that FR-FCFS reorders for.
 *  3. Compression x scheduling: with link compression, lines are
 *     stored compressed (ECC meta-bit trick), so DRAM bursts shorten
 *     and mean read latency drops — an interaction the fixed model
 *     cannot express.
 *
 * The fixed-backend points here also give the perf trajectory a
 * banked-vs-fixed overhead number (BENCH_results.json wall-clock).
 */

#include "bench/bench_common.h"

#include "src/core_api/cmp_system.h"
#include "src/dram/dram_backend.h"

using namespace cmpsim;
using namespace cmpsim::bench;

namespace {

/** Pref-config run with the banked backend; reads the DRAM stat block
 *  directly (row-hit rate is deliberately not a RunResult field: the
 *  fixed path's summaries must stay byte-stable). */
struct DramRun
{
    double row_hit_rate;
    double read_latency;
    double cycles;
};

DramRun
runBanked(Cfg cfg, const WorkloadParams &wl, DramSched sched)
{
    SystemConfig c = configFor(cfg);
    c.dram = DramTimingParams{}; // shield against a stray CMPSIM_DRAM
    c.dram.backend = DramBackendKind::Banked;
    c.dram.sched = sched;
    CmpSystem sys(c, wl);
    const RunLengths len = readEnvKnobs().lengths;
    sys.warmup(len.warmup_per_core);
    sys.run(len.measure_per_core);
    StatRegistry &reg = sys.stats();
    const auto hits = reg.counter("mem.dram.row_hits");
    const auto misses = reg.counter("mem.dram.row_misses");
    const auto conflicts = reg.counter("mem.dram.row_conflicts");
    const std::uint64_t total = hits + misses + conflicts;
    DramRun r;
    r.row_hit_rate =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(hits) /
                         static_cast<double>(total);
    r.read_latency = reg.average("mem.read_latency");
    r.cycles = static_cast<double>(sys.cycles());
    return r;
}

} // namespace

int
main()
{
    banner("Figure 11b (ablation): banked DRAM backend vs fixed",
           "model-robustness check: no paper counterpart; interaction "
           "signs should match Figure 11 at 20 GB/s", 1);

    // ---- 1: interaction coefficient under both backends ----------
    const Cfg cfgs[] = {Cfg::Base, Cfg::Pref, Cfg::Compr,
                        Cfg::ComprPref};
    constexpr std::size_t kCfgs = sizeof(cfgs) / sizeof(cfgs[0]);
    const std::vector<std::string> wls = {"zeus", "mgrid"};

    std::vector<PointSpec> specs;
    for (const auto &wl : wls) {
        for (const bool banked : {false, true}) {
            for (const Cfg c : cfgs) {
                PointSpec s = pointSpec(c, wl, 8, 20.0, false, 1);
                s.config.dram = DramTimingParams{};
                if (banked)
                    s.config.dram.backend = DramBackendKind::Banked;
                specs.push_back(s);
            }
        }
    }
    const auto results = runPoints(specs);

    std::printf("%-8s %12s %12s %14s\n", "bench", "fixed", "banked",
                "base overhead");
    for (std::size_t w = 0; w < wls.size(); ++w) {
        double inter[2] = {0, 0};
        double base_cycles[2] = {0, 0};
        for (std::size_t b = 0; b < 2; ++b) {
            const std::size_t at = (w * 2 + b) * kCfgs;
            const double base = meanCycles(results[at]);
            const double pref = meanCycles(results[at + 1]);
            const double compr = meanCycles(results[at + 2]);
            const double both = meanCycles(results[at + 3]);
            base_cycles[b] = base;
            inter[b] = interaction(speedup(base, pref),
                                   speedup(base, compr),
                                   speedup(base, both)) *
                       100.0;
        }
        std::printf("%-8s %+11.1f%% %+11.1f%% %+13.1f%%\n",
                    wls[w].c_str(), inter[0], inter[1],
                    (base_cycles[1] / base_cycles[0] - 1.0) * 100.0);
    }

    // ---- 2 & 3: row locality and compression-shortened bursts ----
    const WorkloadParams stride = benchmarkParams("mgrid");
    WorkloadParams random = stride;
    random.name = "mgrid-random";
    random.stride_frac = 0.0; // same footprints, no stride streams

    const DramRun s_frfcfs =
        runBanked(Cfg::Pref, stride, DramSched::FrFcfs);
    const DramRun s_fcfs = runBanked(Cfg::Pref, stride, DramSched::Fcfs);
    const DramRun r_frfcfs =
        runBanked(Cfg::Pref, random, DramSched::FrFcfs);
    const DramRun compr =
        runBanked(Cfg::ComprPref, stride, DramSched::FrFcfs);

    std::printf("\n%-24s %12s %14s\n", "banked point (mgrid)",
                "row hits", "read latency");
    std::printf("%-24s %11.1f%% %13.0fcy\n", "stride + FR-FCFS",
                s_frfcfs.row_hit_rate, s_frfcfs.read_latency);
    std::printf("%-24s %11.1f%% %13.0fcy\n", "stride + FCFS",
                s_fcfs.row_hit_rate, s_fcfs.read_latency);
    std::printf("%-24s %11.1f%% %13.0fcy\n", "random + FR-FCFS",
                r_frfcfs.row_hit_rate, r_frfcfs.read_latency);
    std::printf("%-24s %11.1f%% %13.0fcy\n", "stride + compression",
                compr.row_hit_rate, compr.read_latency);
    std::printf("\nstride vs random row-hit delta: %+0.1f points "
                "(expect clearly positive)\n",
                s_frfcfs.row_hit_rate - r_frfcfs.row_hit_rate);
    return 0;
}
