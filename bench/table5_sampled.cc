/**
 * @file
 * Reproduces the Table 5 interaction sign with the statistical
 * sampling engine (DESIGN.md §14) on a 100x longer workload than the
 * full-detail benches can afford: each point traverses 5M instructions
 * per core (vs the standard 50k measured window) as ten 500k-instr
 * intervals of pure-skip + functional-warming fast-forward + 20k
 * detail. The warming depth is per-workload: mgrid's streaming
 * working set needs a deep warm (145k) before its prefetch/compression
 * interaction shows, zeus is warm after 45k.
 *
 * The interaction CI uses a *paired* per-interval design. Intervals
 * are instruction-indexed and the workload's RNG draws are
 * timing-independent, so with a shared seed the four configurations
 * measure the same workload windows; the per-interval ratio
 *
 *     r_i = (C_pref_i * C_compr_i) / (C_base_i * C_both_i)
 *
 * (EQ 5's 1+Interaction evaluated window-by-window) cancels the
 * common-mode phase noise that dominates unpaired cycle CIs, and the
 * Student-t summary over {r_i} gives the interaction's own 95% CI.
 *
 * Also printed: a sampled-vs-full-detail IPC validation row on the
 * same traversed length, fast-forward throughput in both warming and
 * pure-skip modes, and the wall-clock cost relative to the standard
 * full-detail matrix at the default seed count.
 *
 * Exit status is nonzero when the mgrid interaction (paper: +21.5%,
 * the largest in Table 5) is not positive with a 95% CI excluding
 * zero, or when the 100x-longer sampled matrix costs more than 3x the
 * wall-clock of the standard-length full-detail matrix.
 */

#include <chrono>
#include <cmath>
#include <memory>

#include "bench/bench_common.h"
#include "src/sample/matrix_sampler.h"

using namespace cmpsim;
using namespace cmpsim::bench;

namespace {

double
wallOf(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One workload's config matrix, run in lockstep through the
 *  MatrixSampler so the pure-skip prefix of every fast-forward phase
 *  executes once instead of once per config, and the per-interval
 *  samples pair exactly (same seed, same instruction-indexed
 *  windows). */
template <std::size_t N>
std::vector<SamplingResult>
sampledMatrix(const Cfg (&cfgs)[N], const std::string &wl,
              const SamplingPlan &plan)
{
    std::vector<std::unique_ptr<CmpSystem>> systems;
    for (const Cfg c : cfgs) {
        SystemConfig config = configFor(c);
        config.seed = 1; // shared across configs: pairing needs it
        config.sampling = plan;
        // No separate warmup: the first interval's fast-forward phase
        // (with its functional-warming tail) is the warmup.
        systems.push_back(std::make_unique<CmpSystem>(
            config, benchmarkParams(wl)));
    }
    std::vector<CmpSystem *> ptrs;
    for (auto &s : systems)
        ptrs.push_back(s.get());
    return MatrixSampler(std::move(ptrs)).run();
}

int
run()
{
    banner("Table 5 (sampled): interaction sign on 100x longer runs "
           "with paired per-interval 95% CIs",
           "interaction positive for mgrid (+21.5) and zeus (+13.2); "
           "sampling: 10 x 500k instr/core (skip + warm ff + 20k "
           "detail)",
           2);

    const std::vector<std::string> workloads = {"mgrid", "zeus"};
    const std::vector<SamplingPlan> plans = {
        SamplingPlan::parse("480000:20000:10:warm145000"),
        SamplingPlan::parse("480000:20000:10:warm45000"),
    };
    const Cfg cfgs[] = {Cfg::Base, Cfg::Pref, Cfg::Compr,
                        Cfg::ComprPref};

    // Sampled matrix: 5M instr/core traversed per point.
    std::vector<std::vector<SamplingResult>> sampled(workloads.size());
    const double sampled_wall = wallOf([&] {
        for (std::size_t w = 0; w < workloads.size(); ++w)
            sampled[w] = sampledMatrix(cfgs, workloads[w], plans[w]);
    });

    // Full-detail reference matrix: the same points at the standard
    // measured length and seed count — "today's" cost. Pinned rather
    // than read from the environment so the 100x-longer and 3x-wall
    // claims mean the same thing under CMPSIM_MEASURE/SEEDS overrides.
    std::vector<PointSpec> ref_specs;
    for (const auto &wl : workloads) {
        for (const Cfg c : cfgs) {
            PointSpec spec = pointSpec(c, wl, 8, 20.0, false, 2);
            spec.lengths.warmup_per_core = 400000;
            spec.lengths.measure_per_core = 50000;
            ref_specs.push_back(std::move(spec));
        }
    }
    // The wall-clock gate compares the sampled matrix against this
    // full-detail reference; one runner worker keeps the comparison
    // compute-for-compute on any host. No journal: a reference
    // restored from one would time nothing.
    RunPolicy ref_policy = readEnvKnobs().policy;
    ref_policy.journal_path.clear();
    const double detail_wall = wallOf([&] {
        runPointsChecked(ref_specs, /*jobs=*/1, ref_policy).throwIfFailed();
    });

    std::printf("%-8s | %10s %12s %8s | %8s\n", "bench", "interact",
                "ci95 (+/-)", "excl 0", "paper");
    bool mgrid_ok = false;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const auto &base = sampled[w][0].samples;
        const auto &pref = sampled[w][1].samples;
        const auto &compr = sampled[w][2].samples;
        const auto &both = sampled[w][3].samples;

        std::size_t n = base.size();
        for (const auto *v : {&pref, &compr, &both})
            n = std::min(n, v->size());
        std::vector<double> ratios;
        for (std::size_t i = 0; i < n; ++i) {
            ratios.push_back((pref[i].cycles * compr[i].cycles) /
                             (base[i].cycles * both[i].cycles));
        }
        const SampleSummary r = summarize(ratios);
        const bool excludes_zero = std::fabs(r.mean - 1.0) > r.ci95;
        const double inter_pct = (r.mean - 1.0) * 100.0;
        std::printf("%-8s | %+9.1f%% %11.1f%% %8s | %+7.1f\n",
                    workloads[w].c_str(), inter_pct, r.ci95 * 100.0,
                    excludes_zero ? "yes" : "NO",
                    paperRow(workloads[w]).interaction);
        if (workloads[w] == "mgrid")
            mgrid_ok = inter_pct > 0 && excludes_zero;
    }

    // Validation row: sampled vs full-detail IPC on the same traversed
    // length (zeus base, 10 x (15k ff + 5k detail) vs one contiguous
    // 200k window) — the sampling error the engine trades for speed.
    PointSpec full = pointSpec(Cfg::Base, "zeus", 8, 20.0, false, 1);
    full.lengths.measure_per_core = 200000;
    PointSpec samp = pointSpec(Cfg::Base, "zeus", 8, 20.0, false, 1);
    samp.config.sampling = SamplingPlan::parse("15000:5000:10");
    const auto val =
        runPoints({std::move(full), std::move(samp)}, /*jobs=*/1);
    const double ipc_full = val[0].runs.front().ipc;
    const double ipc_samp = val[1].runs.front().ipc;
    const double err_pct =
        std::fabs(ipc_samp - ipc_full) / ipc_full * 100.0;
    std::printf("\nvalidation: zeus base IPC full-detail %.4f vs "
                "sampled %.4f (%.2f%% error)\n",
                ipc_full, ipc_samp, err_pct);

    // Fast-forward throughput, warming (cache/prefetcher state
    // updated) and pure-skip (workload position + value store only).
    {
        SystemConfig cfg = configFor(Cfg::Base);
        cfg.sampling = plans[0]; // arms the engine
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        sys.warmup(10000);
        const std::uint64_t burst = 2'000'000;
        const double warm_wall =
            wallOf([&] { sys.fastForward(burst); });
        const double skip_wall =
            wallOf([&] { sys.fastForward(burst, 0); });
        std::printf("fast-forward throughput: warm %.1f / skip %.1f "
                    "M instr/core/sec (%.1f / %.1f M instr/sec over "
                    "%u cores)\n",
                    static_cast<double>(burst) / warm_wall / 1e6,
                    static_cast<double>(burst) / skip_wall / 1e6,
                    static_cast<double>(burst) * cfg.cores / warm_wall /
                        1e6,
                    static_cast<double>(burst) * cfg.cores / skip_wall /
                        1e6,
                    cfg.cores);
    }

    const double ratio = sampled_wall / detail_wall;
    std::printf("wall-clock: sampled 100x-longer matrix %.1fs vs "
                "full-detail standard matrix %.1fs (%.2fx)\n",
                sampled_wall, detail_wall, ratio);

    if (!mgrid_ok) {
        std::printf("FAIL: mgrid interaction not positive with CI "
                    "excluding zero\n");
        return 1;
    }
    if (ratio > 3.0) {
        std::printf("FAIL: sampled matrix exceeded 3x full-detail "
                    "wall-clock\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main()
{
    return benchMain("table5_sampled", run);
}
