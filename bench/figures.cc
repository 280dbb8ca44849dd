/**
 * @file
 * The paper-figure driver. Most of the paper's tables and figures are
 * views of one (workload x config) matrix, so each is a Section here:
 * the points it needs and how it prints them. main() simulates every
 * distinct point of every section once, in one runPoints() batch
 * (points are keyed like journal records, by fnv1a(pointSpecBytes)),
 * then prints the sections in name order, one empty line apart, and
 * ends with the matrix size.
 *
 * Benches that build their own systems or time themselves stay
 * separate binaries (table5_sampled, ablation_cpi_stack, micro_*).
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <unordered_map>

#include "bench/bench_common.h"
#include "src/common/fingerprint.h"
#include "src/compression/fpc.h"
#include "src/workload/value_profile.h"

using namespace cmpsim;
using namespace cmpsim::bench;

namespace {

using Summaries = std::vector<MetricSummary>;

/** One table or figure: its points and how to print them. */
struct Section
{
    const char *name;  ///< the binary it replaced; sets print order
    const char *title; ///< banner title
    const char *paper; ///< banner paper line
    std::vector<PointSpec> points = {};
    /** Print the table from the summaries of points, same order. */
    std::function<void(const Summaries &)> print = {};
};

const unsigned kCoreCounts[] = {1, 2, 4, 8, 16};
const std::vector<std::string> kCommercial = {"apache", "zeus", "oltp",
                                              "jbb"};

/** The standard 8-core, 20 GB/s point of every (workload, cfg) pair,
 *  workload-major, at CMPSIM_SEEDS seeds. */
std::vector<PointSpec>
grid(const std::vector<std::string> &wls, std::initializer_list<Cfg> cfgs,
     bool infinite_bw = false)
{
    std::vector<PointSpec> points;
    for (const auto &wl : wls)
        for (const Cfg c : cfgs)
            points.push_back(pointSpec(c, wl, 8, 20.0, infinite_bw));
    return points;
}

/**
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
Section
ablations()
{
    Section s{"ablations",
              "Ablations: design choices behind the paper's mechanisms",
              "DESIGN.md Section 4"};
    static const char *const wls[] = {"zeus", "jbb"};
    // Each workload's points are its base, then one per row; a row is
    // its printed text up to the improvement.
    std::vector<std::string> rows;
    char row[64];
    auto label = [&row](const char *text) {
        std::snprintf(row, sizeof(row), "  %-40s ", text);
        return std::string(row);
    };
    for (const char *wl : wls) {
        rows.clear();
        auto add = [&](std::string text, const SystemConfig &cfg) {
            s.points.push_back({cfg, wl, readEnvKnobs().lengths, 1});
            rows.push_back(std::move(text));
        };
        add("", configFor(Cfg::Base));

        auto cfg = configFor(Cfg::Pref);
        add(label("pref, per-core L2 engines"), cfg);
        cfg.shared_l2_prefetcher = true;
        add(label("pref, one shared L2 engine"), cfg);

        cfg = configFor(Cfg::Pref);
        cfg.l1_prefetch_triggers_l2 = false;
        add(label("pref, L1 does not trigger L2"), cfg);

        for (unsigned tags : {0u, 4u, 8u}) {
            cfg = configFor(Cfg::Adaptive);
            cfg.extra_victim_tags = tags;
            std::snprintf(row, sizeof(row),
                          "  adaptive, %u extra victim tags/set %12s ",
                          tags, "");
            add(row, cfg);
        }

        for (Cycle lat : {Cycle(0), Cycle(5), Cycle(10)}) {
            cfg = configFor(Cfg::Compr);
            cfg.decompression_latency = lat;
            std::snprintf(row, sizeof(row),
                          "  compression, %2llu-cycle decompression %9s ",
                          static_cast<unsigned long long>(lat), "");
            add(row, cfg);
        }

        cfg = configFor(Cfg::Compr);
        cfg.wide_compressed_sets = true;
        add(label("compression, 64-segment sets"), cfg);

        cfg = configFor(Cfg::Compr);
        cfg.adaptive_compression = true;
        add(label("compression, ISCA'04 adaptive policy"), cfg);
    }
    s.print = [rows](const Summaries &r) {
        for (std::size_t at = 0; const char *wl : wls) {
            const double base = meanCycles(r[at]);
            std::printf("--- %s (improvement vs base) ---\n", wl);
            for (std::size_t i = 1; i < rows.size(); ++i) {
                std::printf("%s%+6.1f%%\n", rows[i].c_str(),
                            pct(base, meanCycles(r[at + i])));
            }
            std::printf("\n");
            at += rows.size();
        }
    };
    return s;
}

/**
 * Reproduces Figure 1 (the motivating example): zeus performance
 * improvement from prefetching, compression, both, and adaptive
 * prefetching + compression, as the CMP grows from 1 to 16 cores.
 *
 * Paper: uniprocessor prefetching gains +74%; at 16 cores it turns
 * into an 8% LOSS, while compression alone gives +6-12% and the
 * adaptive combination reaches +28%.
 */
Section
fig01Motivation()
{
    Section s{"fig01_motivation",
              "Figure 1: zeus improvement (%) vs base at each core count",
              "pref: +74% (1p) -> -8% (16p); compr alone +6-12%; "
              "adaptive+compr +28% at 16p"};
    for (const unsigned n : kCoreCounts) {
        for (const Cfg c : {Cfg::Base, Cfg::Pref, Cfg::Compr,
                            Cfg::ComprPref, Cfg::ComprAdapt})
            s.points.push_back(pointSpec(c, "zeus", n, 20.0, false, 1));
    }
    s.print = [](const Summaries &r) {
        std::printf("%6s %8s %8s %10s %12s\n", "cores", "pref", "compr",
                    "compr+pref", "compr+adapt");
        for (std::size_t at = 0; const unsigned n : kCoreCounts) {
            const double base = meanCycles(r[at]);
            auto imp = [&](std::size_t i) {
                return pct(base, meanCycles(r[at + i]));
            };
            std::printf("%6u %+7.1f%% %+7.1f%% %+9.1f%% %+11.1f%%\n", n,
                        imp(1), imp(2), imp(3), imp(4));
            at += 5;
        }
    };
    return s;
}

/**
 * Reproduces Figure 3: L2 miss-rate reduction from cache compression
 * (no prefetching). Paper: commercial workloads reduce misses by
 * 10-23%; SPEComp reductions are substantially smaller (apsi ~5%
 * despite a 1% capacity gain, fma3d ~0% despite 19%).
 */
Section
fig03MissReduction()
{
    Section s{"fig03_miss_reduction",
              "Figure 3: miss reduction from cache compression",
              "commercial 10-23% fewer misses; SPEComp ~0-5%",
              grid(benchmarkNames(), {Cfg::Base, Cfg::CacheCompr})};
    s.print = [](const Summaries &r) {
        std::printf("%-8s %16s %16s %12s %10s\n", "bench", "base m/ki",
                    "compressed m/ki", "reduction", "paper");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            auto mpki = [&](std::size_t i) {
                return meanOf(r[at + i], &RunResult::l2_misses_per_kilo_instr);
            };
            const double mb = mpki(0), mc = mpki(1);
            const double reduction = mb > 0 ? (1.0 - mc / mb) * 100.0 : 0;
            std::printf("%-8s %16.2f %16.2f %11.1f%% %10s\n", wl.c_str(),
                        mb, mc, reduction,
                        isCommercial(wl) ? "10-23%" : "0-5%");
            at += 2;
        }
    };
    return s;
}

/**
 * Reproduces Figure 4: pin bandwidth demand (GB/s) with no
 * compression, cache compression only, link compression only, and
 * both — measured on a system with infinite pin bandwidth, the
 * paper's definition of demand. Paper: base demand 5.0 (oltp) to 8.8
 * (apache) GB/s commercial, 7.6 (art) to 27.7 (fma3d) GB/s SPEComp;
 * link compression cuts 34-41% commercial, up to 23% SPEComp (apsi
 * barely moves).
 */
Section
fig04BandwidthDemand()
{
    Section s{"fig04_bandwidth_demand",
              "Figure 4: pin bandwidth demand (GB/s, infinite-bw system)",
              "base: apache 8.8, oltp 5.0, art 7.6, fma3d 27.7; link "
              "compression -34-41% commercial / up to -23% SPEComp",
              grid(benchmarkNames(),
                   {Cfg::Base, Cfg::CacheCompr, Cfg::LinkCompr,
                    Cfg::Compr},
                   /*infinite_bw=*/true)};
    s.print = [](const Summaries &r) {
        std::printf("%-8s %8s %8s %8s %8s %10s %10s\n", "bench", "none",
                    "cache", "link", "both", "both vs none",
                    "paper base");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            auto bw = [&](std::size_t i) {
                return meanOf(r[at + i], &RunResult::bandwidth_gbps);
            };
            const double none = bw(0), both = bw(3);
            std::printf("%-8s %8.1f %8.1f %8.1f %8.1f %9.0f%% %10.1f\n",
                        wl.c_str(), none, bw(1), bw(2), both,
                        none > 0 ? (both / none - 1.0) * 100.0 : 0.0,
                        paperBandwidthDemand(wl));
            at += 4;
        }
    };
    return s;
}

/**
 * Reproduces Figure 5: speedup of cache compression, link compression,
 * and both (no prefetching), relative to the base system. Paper: cache
 * compression gains 5-18% commercial / 0-4% SPEComp; link compression
 * alone only matters for bandwidth-bound fma3d (+23%); both together
 * slightly beat cache-only (except fma3d, where link dominates).
 */
Section
fig05CompressionSpeedup()
{
    Section s{"fig05_compression_speedup",
              "Figure 5: compression speedup (%) vs base",
              "cache: +5-18% commercial, 0-4% SPEComp; link: fma3d +23%; "
              "combined Table 5 column: see table5_interactions",
              grid(benchmarkNames(), {Cfg::Base, Cfg::CacheCompr,
                                      Cfg::LinkCompr, Cfg::Compr})};
    s.print = [](const Summaries &r) {
        std::printf("%-8s %10s %10s %10s %14s\n", "bench", "cache",
                    "link", "both", "paper(both)");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            const double base = meanCycles(r[at]);
            auto gain = [&](std::size_t i) {
                return pct(base, meanCycles(r[at + i]));
            };
            std::printf("%-8s %+9.1f%% %+9.1f%% %+9.1f%% %+13.1f%%\n",
                        wl.c_str(), gain(1), gain(2), gain(3),
                        paperRow(wl).compr);
            at += 4;
        }
    };
    return s;
}

/**
 * Reproduces Figure 6: speedup of base and adaptive stride-based
 * prefetching relative to no prefetching (no compression). Paper:
 * base prefetching helps half the workloads (zeus +21%, mgrid +19%)
 * and hurts jbb (-25%) and fma3d (-3%); adaptation turns jbb's -25%
 * into +0.8%, apache's -0.9% into +19%, zeus's +21% into +42%, and
 * oltp's +0.3% into +12% (i.e., +12-34% over non-adaptive for
 * commercial, 0-2% for SPEComp).
 */
Section
fig06PrefetchSpeedup()
{
    Section s{"fig06_prefetch_speedup",
              "Figure 6: prefetching speedup (%) vs no prefetching",
              "paper base-pref: apache -0.9, zeus +21.3, oltp +0.3, "
              "jbb -24.5, art +6.4, apsi +13.6, fma3d -3.4, mgrid +18.9",
              grid(benchmarkNames(), {Cfg::Base, Cfg::Pref, Cfg::Adaptive})};
    s.print = [](const Summaries &r) {
        std::printf("%-8s %10s %10s %16s %12s\n", "bench", "pref",
                    "adaptive", "adapt-vs-pref", "paper(pref)");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            const double base = meanCycles(r[at]);
            const double pref = meanCycles(r[at + 1]);
            const double adap = meanCycles(r[at + 2]);
            at += 3;
            std::printf("%-8s %+9.1f%% %+9.1f%% %+15.1f%% %+11.1f%%\n",
                        wl.c_str(), pct(base, pref), pct(base, adap),
                        pct(pref, adap), paperRow(wl).pref);
        }
        std::printf("\npaper: adaptive improves commercial workloads by "
                    "12-34%% over\nnon-adaptive prefetching and SPEComp "
                    "by 0-2%% (Section 4.3).\n");
    };
    return s;
}

/**
 * Reproduces Figure 7: pin bandwidth demand of prefetching and
 * compression combinations, normalized to the base system (no
 * compression, no prefetching), on an infinite-bandwidth system.
 * Paper: prefetching alone raises demand 23-206%; combining with
 * cache+link compression pulls the increase back (zeus +98% -> +14%;
 * art +23% -> -4%). Also prints the adaptive rows of Section 5.1
 * (non-adaptive +70-132% commercial vs adaptive +19-52%).
 */
Section
fig07BandwidthPrefCompr()
{
    Section s{"fig07_bandwidth_pref_compr",
              "Figure 7: normalized bandwidth demand (base = 100)",
              "pref alone: 123-306; pref+compr far lower (zeus 114); "
              "adaptive limits the commercial increase to +19-52%",
              grid(benchmarkNames(),
                   {Cfg::Base, Cfg::Pref, Cfg::Adaptive, Cfg::ComprPref,
                    Cfg::ComprAdapt},
                   /*infinite_bw=*/true)};
    s.print = [](const Summaries &r) {
        std::printf("%-8s %8s %8s %12s %12s %14s\n", "bench", "base",
                    "pref", "adaptive", "pref+compr", "adapt+compr");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            const double base = meanOf(r[at], &RunResult::bandwidth_gbps);
            auto norm = [&](std::size_t i) {
                const double v =
                    meanOf(r[at + i], &RunResult::bandwidth_gbps);
                return base > 0 ? v / base * 100.0 : 0.0;
            };
            std::printf("%-8s %8.0f %8.0f %12.0f %12.0f %14.0f\n",
                        wl.c_str(), 100.0, norm(1), norm(2), norm(3),
                        norm(4));
            at += 5;
        }
    };
    return s;
}

/**
 * Reproduces Figure 8: L2 demand misses classified by whether
 * compression and/or prefetching avoids them, plus the L2 prefetches
 * compression keeps and removes, as fractions of base demand misses.
 * The classes are the paper's global inclusion-exclusion estimate
 * over each config's miss and prefetch counts (classifyMisses).
 * Paper: the avoided-by-either intersection (the negative
 * interaction) is small, apache 8%, art 7%, <=3% elsewhere;
 * compression removes many commercial prefetches (the positive
 * interaction).
 */
Section
fig08MissClassification()
{
    Section s{"fig08_miss_classification",
              "Figure 8: L2 miss/prefetch classification (% of base "
              "demand misses)",
              "avoided-by-either intersection small: apache 8%, art 7%, "
              "<=3% elsewhere; compression absorbs many commercial "
              "prefetches",
              grid(benchmarkNames(), {Cfg::Base, Cfg::CacheCompr,
                                      Cfg::Pref, Cfg::ComprPref})};
    s.print = [](const Summaries &r) {
        std::printf("%-8s %8s %8s %8s %8s | %9s %9s\n", "bench",
                    "unavoid", "only-C", "only-P", "either", "pf-kept",
                    "pf-avoided");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            const MissClassification c =
                classifyMisses(r[at], r[at + 1], r[at + 2], r[at + 3]);
            std::printf("%-8s %7.1f%% %7.1f%% %7.1f%% %7.1f%% | %8.1f%% "
                        "%8.1f%%\n",
                        wl.c_str(), c.unavoidable * 100,
                        c.only_compression * 100,
                        c.only_prefetching * 100, c.either * 100,
                        c.prefetches_kept * 100,
                        c.prefetches_avoided * 100);
            at += 4;
        }
    };
    return s;
}

/**
 * Reproduces Figure 9: speedups of prefetching alone, compression
 * alone, and their combination, relative to the base system (8-core
 * CMP). Paper (Table 5): combined gains of 10-51% for seven of eight
 * workloads, jbb being the exception (-6.5%).
 */
Section
fig09SpeedupCombos()
{
    Section s{"fig09_speedup_combos",
              "Figure 9: speedup (%) of prefetching / compression / both",
              "paper Table 5 rows shown for comparison",
              grid(benchmarkNames(), {Cfg::Base, Cfg::Pref, Cfg::Compr,
                                      Cfg::ComprPref})};
    s.print = [](const Summaries &r) {
        std::printf("%-8s | %8s %8s %8s | %8s %8s %8s\n", "bench",
                    "pref", "compr", "both", "p-pref", "p-compr",
                    "p-both");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            const double base = meanCycles(r[at]);
            auto gain = [&](std::size_t i) {
                return pct(base, meanCycles(r[at + i]));
            };
            const auto &p = paperRow(wl);
            std::printf("%-8s | %+7.1f%% %+7.1f%% %+7.1f%% | %+7.1f%% "
                        "%+7.1f%% %+7.1f%%\n",
                        wl.c_str(), gain(1), gain(2), gain(3), p.pref,
                        p.compr, p.compr_pref);
            at += 4;
        }
    };
    return s;
}

/**
 * Reproduces Figure 10: base vs adaptive prefetching, each with and
 * without compression, for the commercial workloads where adaptation
 * matters. Paper: adaptation alone is dramatic (jbb -25% -> +1%,
 * apache -0.9% -> +19%); combined with compression the extra benefit
 * shrinks to 0.1-8% because compression already removed many strided
 * prefetches and is using the spare tags the detector needs —
 * the spare-tag occupancy column shows that effect (Section 5.4:
 * ~4 victim tags/set uncompressed, ~1-2 compressed).
 */
Section
fig10AdaptiveSpeedup()
{
    Section s{"fig10_adaptive_speedup",
              "Figure 10: adaptive prefetching x compression (commercial)",
              "paper: adapt-vs-pref +12-34%; with compression only "
              "+0.1-8%; victim tags ~4/set uncompressed vs 1-2 "
              "compressed",
              grid(kCommercial, {Cfg::Base, Cfg::Pref, Cfg::Adaptive,
                                 Cfg::ComprPref, Cfg::ComprAdapt})};
    s.print = [](const Summaries &r) {
        std::printf("%-8s %8s %8s %10s %10s | %10s %10s\n", "bench",
                    "pref", "adapt", "compr+pref", "compr+adapt",
                    "vtags(unc)", "vtags(cmp)");
        for (std::size_t at = 0; const auto &wl : kCommercial) {
            const double base = meanCycles(r[at]);
            auto gain = [&](std::size_t i) {
                return pct(base, meanCycles(r[at + i]));
            };
            std::printf("%-8s %+7.1f%% %+7.1f%% %+9.1f%% %+10.1f%% | "
                        "%10.1f %10.1f\n",
                        wl.c_str(), gain(1), gain(2), gain(3), gain(4),
                        meanOf(r[at + 2], &RunResult::victim_tags_per_set),
                        meanOf(r[at + 4], &RunResult::victim_tags_per_set));
            at += 5;
        }
    };
    return s;
}

/**
 * Reproduces Figure 11: the Interaction(Pref, Compr) coefficient as
 * the available pin bandwidth varies over 10, 20, 40 and 80 GB/s.
 * Paper: commercial interactions are large at 10-20 GB/s (up to 29%
 * and 17%) and drop sharply at 40-80 GB/s; SPEComp interactions are
 * small, occasionally slightly negative (>= -3%), with mgrid up to
 * +22% from link compression.
 */
Section
fig11BandwidthSensitivity()
{
    Section s{"fig11_bandwidth_sensitivity",
              "Figure 11: Interaction(Pref, Compr) vs pin bandwidth",
              "large at 10-20 GB/s for commercial (up to 29%/17%), "
              "near zero at 40-80 GB/s"};
    for (const auto &wl : benchmarkNames()) {
        for (const double bw : {10.0, 20.0, 40.0, 80.0}) {
            for (const Cfg c :
                 {Cfg::Base, Cfg::Pref, Cfg::Compr, Cfg::ComprPref})
                s.points.push_back(pointSpec(c, wl, 8, bw, false, 1));
        }
    }
    s.print = [](const Summaries &r) {
        std::printf("%-8s %10s %10s %10s %10s\n", "bench", "10GB/s",
                    "20GB/s", "40GB/s", "80GB/s");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            std::printf("%-8s", wl.c_str());
            for (int bw = 0; bw < 4; ++bw, at += 4) {
                const double base = meanCycles(r[at]);
                auto sp = [&](std::size_t i) {
                    return speedup(base, meanCycles(r[at + i]));
                };
                std::printf(" %+9.1f%%",
                            interaction(sp(1), sp(2), sp(3)) * 100.0);
            }
            std::printf("\n");
        }
    };
    return s;
}

/**
 * Reproduces Figure 12 (and the apache/jbb half of Figure 1):
 * performance improvement of prefetching, adaptive prefetching,
 * compression, and the combinations as the core count scales from 1
 * to 16, each relative to the base system with the same core count.
 *
 * Paper: prefetching's benefit decays with cores (apache +61% at 1p
 * -> 0% at 16p; jbb +2% -> -35%); compression's slowly grows (apache
 * +20% -> +23%); adaptive+compression stays strong at 16 cores
 * (apache +39%, jbb degradation shrinks to -2..+2%).
 */
Section
fig12CoreScaling()
{
    Section s{"fig12_core_scaling",
              "Figure 12: improvement (%) vs base at the same core count",
              "prefetching decays with cores; compression grows slowly; "
              "the combination stays strong"};
    static const char *const wls[] = {"apache", "jbb"};
    for (const char *wl : wls) {
        for (const unsigned n : kCoreCounts) {
            for (const Cfg c : {Cfg::Base, Cfg::Pref, Cfg::Adaptive,
                                Cfg::Compr, Cfg::ComprPref,
                                Cfg::ComprAdapt})
                s.points.push_back(pointSpec(c, wl, n, 20.0, false, 1));
        }
    }
    s.print = [](const Summaries &r) {
        for (std::size_t at = 0; const char *wl : wls) {
            std::printf("--- %s ---\n", wl);
            std::printf("%6s %8s %8s %8s %10s %12s\n", "cores", "pref",
                        "adapt", "compr", "compr+pref", "compr+adapt");
            for (const unsigned n : kCoreCounts) {
                const double base = meanCycles(r[at]);
                auto imp = [&](std::size_t i) {
                    return pct(base, meanCycles(r[at + i]));
                };
                std::printf("%6u %+7.1f%% %+7.1f%% %+7.1f%% %+9.1f%% "
                            "%+11.1f%%\n",
                            n, imp(1), imp(2), imp(3), imp(4), imp(5));
                at += 6;
            }
        }
    };
    return s;
}

double
lineLevelRatio(const ValueProfile &profile)
{
    ValueGenerator gen(profile);
    FpcCompressor fpc;
    Random rng(7);
    double segments = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i)
        segments += fpc.compress(gen.generate(rng)).segments;
    return n * 8.0 / segments;
}

/**
 * Reproduces Table 3: cache compression ratios (average effective
 * cache size relative to the uncompressed 4 MB L2), measured by
 * periodic sampling during execution, exactly as the paper does.
 * Also reports the raw line-level FPC ratio of each workload's data
 * for reference. Paper targets: commercial up to 1.8 (36-80% capacity
 * gain); SPEComp 1.01-1.19.
 */
Section
table3CompressionRatio()
{
    Section s{"table3_compression_ratio",
              "Table 3: cache compression ratios",
              "commercial band 1.36-1.8 (oltp highest ~1.8); "
              "SPEComp band 1.01-1.19 (apsi 1.01)",
              grid(benchmarkNames(), {Cfg::CacheCompr})};
    s.print = [](const Summaries &r) {
        std::printf("%-8s %14s %14s %16s\n", "bench", "in-cache",
                    "line-FPC", "paper band");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            std::printf("%-8s %14.2f %14.2f %16s\n", wl.c_str(),
                        meanOf(r[at++], &RunResult::compression_ratio),
                        lineLevelRatio(benchmarkParams(wl).values),
                        isCommercial(wl) ? "1.36-1.80" : "1.01-1.19");
        }
        std::printf("\nNote: the in-cache ratio reflects segment packing "
                    "and\ntag limits; the line-level ratio is pure FPC "
                    "output.\n");
    };
    return s;
}

/**
 * Reproduces Table 4: prefetch rate (per 1000 instructions), coverage
 * (EQ 3) and accuracy (EQ 4) for the L1I, L1D and L2 prefetchers, on
 * the 8-core CMP with non-adaptive prefetching and no compression.
 */
Section
table4PrefetchProperties()
{
    Section s{"table4_prefetch_properties",
              "Table 4: prefetching properties (rate / coverage% / "
              "accuracy%)",
              "commercial: high L1I rates, L2 26-45% cov @ 32-58% acc; "
              "SPEComp: near-zero L1I, L2 45-96% cov @ 74-98% acc",
              grid(benchmarkNames(), {Cfg::Pref})};
    s.print = [](const Summaries &r) {
        std::printf("%-8s | %18s | %18s | %18s\n", "bench",
                    "L1I  r/cov/acc", "L1D  r/cov/acc", "L2   r/cov/acc");
        std::printf("%-8s | %18s | %18s | %18s  (paper)\n", "", "", "",
                    "");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            const MetricSummary &sum = r[at++];
            auto m = [&](RunResult::PfMetrics RunResult::*field) {
                RunResult::PfMetrics out;
                for (const auto &run : sum.runs) {
                    out.rate_per_kilo_instr +=
                        (run.*field).rate_per_kilo_instr;
                    out.coverage_pct += (run.*field).coverage_pct;
                    out.accuracy_pct += (run.*field).accuracy_pct;
                }
                const auto n = static_cast<double>(sum.runs.size());
                out.rate_per_kilo_instr /= n;
                out.coverage_pct /= n;
                out.accuracy_pct /= n;
                return out;
            };
            std::printf("%-8s", wl.c_str());
            for (auto pf : {&RunResult::l1i, &RunResult::l1d,
                            &RunResult::l2pf}) {
                const RunResult::PfMetrics x = m(pf);
                std::printf(" | %5.1f %5.1f %5.1f", x.rate_per_kilo_instr,
                            x.coverage_pct, x.accuracy_pct);
            }
            std::printf("\n");
            const auto &p = paperTable4Row(wl);
            std::printf("%-8s | %5.1f %5.1f %5.1f | %5.1f %5.1f %5.1f | "
                        "%5.1f %5.1f %5.1f   <- paper\n",
                        "", p.l1i_rate, p.l1i_cov, p.l1i_acc, p.l1d_rate,
                        p.l1d_cov, p.l1d_acc, p.l2_rate, p.l2_cov,
                        p.l2_acc);
        }
    };
    return s;
}

/**
 * Reproduces Table 5: speedups of prefetching, compression, their
 * combination, and adaptive prefetching + compression, plus the
 * Interaction(Pref, Compr) coefficient of EQ 5 (Fields et al. [21]):
 *
 *   Speedup(P,C) = Speedup(P) x Speedup(C) x (1 + Interaction)
 *
 * Paper: positive interaction for all workloads except apsi, up to
 * +21.5% (mgrid) and +16.9% (jbb).
 */
Section
table5Interactions()
{
    Section s{"table5_interactions",
              "Table 5: speedups and interaction between prefetching and "
              "compression",
              "interaction positive everywhere except apsi; mgrid +21.5%, "
              "jbb +16.9%",
              grid(benchmarkNames(), {Cfg::Base, Cfg::Pref, Cfg::Compr,
                                      Cfg::ComprPref, Cfg::ComprAdapt})};
    s.print = [](const Summaries &r) {
        std::printf("%-8s | %8s %8s %8s %8s %8s | %28s\n", "bench",
                    "pref", "compr", "both", "ad+cmp", "interact",
                    "paper p/c/both/inter");
        for (std::size_t at = 0; const auto &wl : benchmarkNames()) {
            const SampleSummary &base = r[at].cycles;
            auto sp = [&](std::size_t i) {
                return speedup(base.mean, meanCycles(r[at + i]));
            };
            const auto &p = paperRow(wl);
            std::printf("%-8s | %+7.1f%% %+7.1f%% %+7.1f%% %+7.1f%% "
                        "%+7.1f%% | %+6.1f/%+5.1f/%+5.1f/%+5.1f\n",
                        wl.c_str(), (sp(1) - 1) * 100, (sp(2) - 1) * 100,
                        (sp(3) - 1) * 100,
                        pct(base.mean, meanCycles(r[at + 4])),
                        interaction(sp(1), sp(2), sp(3)) * 100.0, p.pref,
                        p.compr, p.compr_pref, p.interaction);
            std::printf("%-8s |   95%%-CI of base cycles: +/-%.1f%%\n", "",
                        base.mean > 0 ? base.ci95 / base.mean * 100 : 0.0);
            at += 5;
        }
    };
    return s;
}

int
run()
{
    std::vector<Section> sections = {
        ablations(),
        fig01Motivation(),
        fig03MissReduction(),
        fig04BandwidthDemand(),
        fig05CompressionSpeedup(),
        fig06PrefetchSpeedup(),
        fig07BandwidthPrefCompr(),
        fig08MissClassification(),
        fig09SpeedupCombos(),
        fig10AdaptiveSpeedup(),
        fig11BandwidthSensitivity(),
        fig12CoreScaling(),
        table3CompressionRatio(),
        table4PrefetchProperties(),
        table5Interactions(),
    };
    // Name order is the order run_benches.sh ran the binaries the
    // sections replaced.
    std::sort(sections.begin(), sections.end(),
              [](const Section &a, const Section &b) {
                  return std::strcmp(a.name, b.name) < 0;
              });

    // The union of every section's points, each distinct point once;
    // slots[i][j] is the union index of section i's point j.
    std::vector<PointSpec> matrix;
    std::unordered_map<std::uint64_t, std::size_t> index;
    std::vector<std::vector<std::size_t>> slots;
    std::size_t submitted = 0;
    for (const Section &s : sections) {
        auto &slot = slots.emplace_back();
        for (const PointSpec &p : s.points) {
            const auto [it, fresh] =
                index.try_emplace(fnv1a(pointSpecBytes(p)), matrix.size());
            if (fresh)
                matrix.push_back(p);
            slot.push_back(it->second);
        }
        submitted += s.points.size();
    }

    const Summaries results = runPoints(matrix);

    for (std::size_t i = 0; i < sections.size(); ++i) {
        const Section &s = sections[i];
        Summaries mine;
        for (const std::size_t k : slots[i])
            mine.push_back(results[k]);
        if (i > 0)
            std::printf("\n");
        banner(s.title, s.paper, s.points.front().seeds);
        s.print(mine);
    }
    std::printf("\nmatrix: %zu distinct points of %zu submitted\n",
                matrix.size(), submitted);
    return 0;
}

} // namespace

int
main()
{
    return benchMain("figures", run);
}
