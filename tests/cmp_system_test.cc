#include "src/core_api/cmp_system.h"

#include <gtest/gtest.h>

#include "src/core_api/experiment.h"
#include "src/core_api/parallel_runner.h"

namespace cmpsim {
namespace {

constexpr std::uint64_t kWarm = 60000;
constexpr std::uint64_t kMeasure = 15000;

/** Build, warm and run one config; returns the system for probing. */
std::unique_ptr<CmpSystem>
runSystem(SystemConfig cfg, const std::string &wl,
          std::uint64_t warm = kWarm, std::uint64_t measure = kMeasure)
{
    auto sys =
        std::make_unique<CmpSystem>(cfg, benchmarkParams(wl));
    sys->warmup(warm);
    sys->run(measure);
    return sys;
}

TEST(CmpSystemTest, RunsAndRetiresRequestedWork)
{
    auto sys = runSystem(makeConfig(8, 4, false, false, false, false),
                         "zeus");
    EXPECT_GE(sys->instructions(), 8u * kMeasure);
    EXPECT_GT(sys->cycles(), 0u);
    EXPECT_GT(sys->ipc(), 0.5);
    EXPECT_LT(sys->ipc(), 32.0);
}

/** Every counter, average and histogram of @p reg reads zero. */
void
expectAllZero(const StatRegistry &reg)
{
    const StatSnapshot s = reg.snapshot();
    EXPECT_FALSE(s.counters.empty());
    for (const auto &[name, v] : s.counters)
        EXPECT_EQ(v, 0u) << name;
    for (const auto &[name, a] : s.averages) {
        EXPECT_EQ(a.count, 0u) << name;
        EXPECT_EQ(a.sum, 0.0) << name;
    }
    for (const std::string &name : reg.histogramNames())
        EXPECT_EQ(reg.histogram(name).total(), 0u) << name;
}

TEST(CmpSystemTest, WarmupPopulatesCachesAndResetsStats)
{
    // Every feature, so every component's stats are registered.
    SystemConfig cfg = makeConfig(4, 4, true, true, true, true);
    cfg.cpi_stack = true;
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    sys.warmup(kWarm);
    // Caches warm but stats clean.
    EXPECT_GT(sys.l2().effectiveBytes(), 0u);
    expectAllZero(sys.stats());
    expectAllZero(sys.cpiStats());
}

TEST(CmpSystemTest, WarmupBetweenTimedRunsDrainsFirst)
{
    // A functional access must not race a pending fill: warmup()
    // after run() drains the event queue first, as fastForward() does.
    CmpSystem sys(makeConfig(2, 8, true, true, true, true),
                  benchmarkParams("zeus"));
    sys.warmup(5000);
    for (int i = 0; i < 3; ++i) {
        sys.run(2000);
        sys.warmup(2000);
    }
    sys.run(2000);
    EXPECT_TRUE(sys.audits().check().empty());
}

TEST(CmpSystemTest, DeterministicForSameSeed)
{
    const auto cfg = makeConfig(4, 4, true, true, true, true);
    auto a = runSystem(cfg, "apache");
    auto b = runSystem(cfg, "apache");
    EXPECT_EQ(a->cycles(), b->cycles());
    EXPECT_EQ(a->stats().counter("l2.demand_misses"),
              b->stats().counter("l2.demand_misses"));
}

TEST(CmpSystemTest, DifferentSeedsDiffer)
{
    auto cfg = makeConfig(4, 4, false, false, false, false);
    auto a = runSystem(cfg, "zeus");
    cfg.seed = 2;
    auto b = runSystem(cfg, "zeus");
    EXPECT_NE(a->cycles(), b->cycles());
}

TEST(CmpSystemTest, CompressionRaisesEffectiveCapacityForCommercial)
{
    auto sys = runSystem(makeConfig(8, 4, true, false, false, false),
                         "oltp", 400000);
    // oltp data is highly compressible (Table 3: ~1.8); even the
    // packed in-cache ratio should clear 1.15 once warm.
    EXPECT_GT(sys->compressionRatio(), 1.15);
    EXPECT_GT(sys->stats().counter("l2.penalized_hits"), 0u);
}

TEST(CmpSystemTest, CompressionReducesMissesForCommercial)
{
    auto base = runSystem(makeConfig(8, 4, false, false, false, false),
                          "apache", 120000);
    auto compr = runSystem(makeConfig(8, 4, true, true, false, false),
                           "apache", 120000);
    const double m_base =
        static_cast<double>(base->stats().counter("l2.demand_misses"));
    const double m_compr = static_cast<double>(
        compr->stats().counter("l2.demand_misses"));
    EXPECT_LT(m_compr, m_base);
}

TEST(CmpSystemTest, LinkCompressionReducesFlits)
{
    auto plain = runSystem(makeConfig(8, 4, false, false, false, false),
                           "oltp");
    auto link = runSystem(makeConfig(8, 4, false, true, false, false),
                          "oltp");
    auto flits_per_msg = [](CmpSystem &sys) {
        return static_cast<double>(sys.memory().dataFlits()) /
               static_cast<double>(sys.memory().reads() +
                                   sys.memory().writebacks());
    };
    EXPECT_DOUBLE_EQ(flits_per_msg(*plain), 8.0);
    EXPECT_LT(flits_per_msg(*link), 7.0); // oltp compresses well
}

TEST(CmpSystemTest, PrefetchingIssuesAndCovers)
{
    auto sys = runSystem(makeConfig(8, 4, false, false, true, false),
                         "zeus", 120000);
    EXPECT_GT(sys->stats().counter("l2.l2pf_issued"), 0u);
    EXPECT_GT(sys->stats().counter("l2.pf_hits_l2"), 0u);
    std::uint64_t l1d_issued = 0, l1i_issued = 0;
    for (unsigned c = 0; c < 8; ++c) {
        const std::string core = std::to_string(c);
        l1d_issued += sys->stats().counter("l1d." + core + ".pf_issued");
        l1i_issued += sys->stats().counter("l1i." + core + ".pf_issued");
    }
    EXPECT_GT(l1d_issued, 0u);
    EXPECT_GT(l1i_issued, 0u);
}

TEST(CmpSystemTest, PrefetchingHurtsJbbAdaptiveRescues)
{
    // The paper's jbb story: non-adaptive prefetching degrades
    // performance; the adaptive mechanism recovers most of it.
    auto base = runSystem(makeConfig(8, 4, false, false, false, false),
                          "jbb", 120000, 25000);
    auto pref = runSystem(makeConfig(8, 4, false, false, true, false),
                          "jbb", 120000, 25000);
    auto adap = runSystem(makeConfig(8, 4, false, false, true, true),
                          "jbb", 120000, 25000);
    EXPECT_GT(pref->cycles(), base->cycles());  // prefetching hurts
    EXPECT_LT(adap->cycles(), pref->cycles());  // adaptation recovers
    // And the adaptive throttle actually engaged.
    EXPECT_LT(adap->l2Adaptive().counterValue(), 25u);
}

TEST(CmpSystemTest, InfiniteBandwidthNeverSlower)
{
    const RunLengths len{80000, kMeasure};
    auto cfg = makeConfig(8, 4, false, false, true, false);
    const RunResult finite = runOnce(cfg, "fma3d", len);
    cfg.infinite_bandwidth = true;
    const RunResult infinite = runOnce(cfg, "fma3d", len);
    EXPECT_LE(infinite.cycles, finite.cycles);
    // Demand measured on the infinite link exceeds the 20 GB/s cap
    // for the paper's bandwidth-bound workload.
    EXPECT_GT(infinite.bandwidth_gbps, 20.0);
}

TEST(CmpSystemTest, LowerPinBandwidthIsSlower)
{
    auto fast =
        runSystem(makeConfig(8, 4, false, false, false, false, 80.0),
                  "apache");
    auto slow =
        runSystem(makeConfig(8, 4, false, false, false, false, 10.0),
                  "apache");
    EXPECT_GT(slow->cycles(), fast->cycles());
}

TEST(CmpSystemTest, CoreCountScalesPressure)
{
    // Same per-core work: more cores -> more contention per core on
    // the shared L2 and pins (the premise of Figures 1 and 12).
    auto one = runSystem(makeConfig(1, 4, false, false, false, false),
                         "zeus");
    auto sixteen =
        runSystem(makeConfig(16, 4, false, false, false, false), "zeus");
    const double ipc1 = one->ipc() / 1.0;
    const double ipc16 = sixteen->ipc() / 16.0;
    EXPECT_LT(ipc16, ipc1);
}

TEST(CmpSystemTest, SharedL2PrefetcherAblationRuns)
{
    auto cfg = makeConfig(4, 4, false, false, true, false);
    cfg.shared_l2_prefetcher = true;
    auto sys = runSystem(cfg, "mgrid");
    EXPECT_GT(sys->stats().counter("l2.l2pf_issued"), 0u);
}

TEST(CmpSystemTest, VictimTagsPresentInAdaptiveConfigs)
{
    auto cfg = makeConfig(8, 4, false, false, true, true);
    auto sys = runSystem(cfg, "jbb");
    // Uncompressed adaptive config has 4 extra tags per set: victim
    // tags survive even in heavily-churned sets (Section 5.4).
    EXPECT_GT(sys->l2().meanVictimTags(), 0.3);
}

TEST(ExperimentTest, RunOnceExtractsMetrics)
{
    RunLengths len;
    len.warmup_per_core = kWarm;
    len.measure_per_core = kMeasure;
    const auto r =
        runOnce(makeConfig(8, 4, true, true, true, true), "zeus", len);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.l2_demand_accesses, 0.0);
    EXPECT_GT(r.bandwidth_gbps, 0.0);
    EXPECT_GT(r.compression_ratio, 0.5);
    EXPECT_GT(r.l2pf.rate_per_kilo_instr, 0.0);
    EXPECT_GE(r.l2pf.accuracy_pct, 0.0);
    EXPECT_LE(r.l2pf.accuracy_pct, 100.0);
}

TEST(ExperimentTest, RunPointsSummarizes)
{
    PointSpec spec;
    spec.config = makeConfig(4, 4, false, false, false, false);
    spec.benchmark = "art";
    spec.lengths.warmup_per_core = 30000;
    spec.lengths.measure_per_core = 8000;
    spec.seeds = 3;
    const auto s = runPoints({spec}).front();
    EXPECT_EQ(s.runs.size(), 3u);
    EXPECT_EQ(s.cycles.n, 3u);
    EXPECT_GT(s.cycles.mean, 0.0);
    EXPECT_GT(s.cycles.ci95, 0.0); // seeds differ
}

TEST(ExperimentTest, SpeedupAndInteractionMath)
{
    EXPECT_DOUBLE_EQ(speedup(200, 100), 2.0);
    // EQ 5: S(A,B) = S(A) x S(B) x (1 + I)
    EXPECT_NEAR(interaction(1.2, 1.1, 1.452), 0.10, 1e-9);
    EXPECT_NEAR(interaction(1.2, 1.1, 1.32), 0.0, 1e-9);
    EXPECT_LT(interaction(1.2, 1.1, 1.2), 0.0);
}

/** A one-seed summary: @p misses L2 demand misses and @p l2_prefetches
 *  L2 prefetcher fetches over 1000 instructions. */
MetricSummary
missSummary(double misses, double l2_prefetches = 0)
{
    RunResult r;
    r.instructions = 1000;
    r.l2_demand_misses = misses;
    r.l2pf.rate_per_kilo_instr = l2_prefetches;
    MetricSummary s;
    s.runs.push_back(r);
    return s;
}

TEST(MissClassifyTest, EmptyBaseYieldsZeros)
{
    const auto e = missSummary(0);
    const auto c = classifyMisses(e, e, missSummary(0, 4), e);
    EXPECT_DOUBLE_EQ(c.unavoidable, 0.0);
    EXPECT_DOUBLE_EQ(c.only_compression, 0.0);
    EXPECT_DOUBLE_EQ(c.only_prefetching, 0.0);
    EXPECT_DOUBLE_EQ(c.either, 0.0);
    EXPECT_DOUBLE_EQ(c.prefetches_kept, 0.0);
    EXPECT_DOUBLE_EQ(c.prefetches_avoided, 0.0);
}

TEST(MissClassifyTest, AllUnavoidable)
{
    const auto same = missSummary(10);
    const auto c = classifyMisses(same, same, same, same);
    EXPECT_DOUBLE_EQ(c.unavoidable, 1.0);
    EXPECT_DOUBLE_EQ(c.only_compression, 0.0);
    EXPECT_DOUBLE_EQ(c.only_prefetching, 0.0);
    EXPECT_DOUBLE_EQ(c.either, 0.0);
}

TEST(MissClassifyTest, DisjointAvoidanceSplitsCleanly)
{
    // Each technique avoids half of the base misses and together they
    // avoid all of them: the halves cannot overlap. Base is a mean of
    // two seeds (8 and 12).
    auto base = missSummary(8);
    base.runs.push_back(missSummary(12).runs.front());
    const auto c = classifyMisses(base, missSummary(5), missSummary(5),
                                  missSummary(0));
    EXPECT_DOUBLE_EQ(c.only_compression, 0.5);
    EXPECT_DOUBLE_EQ(c.only_prefetching, 0.5);
    EXPECT_DOUBLE_EQ(c.either, 0.0);
    EXPECT_DOUBLE_EQ(c.unavoidable, 0.0);
}

TEST(MissClassifyTest, OverlapCountedAsEither)
{
    // Each technique avoids 1 of 2 misses, but together they still
    // avoid only 1: the same miss, the negative-interaction
    // intersection of Section 5.2.
    auto c = classifyMisses(missSummary(2), missSummary(1), missSummary(1),
                            missSummary(1));
    EXPECT_DOUBLE_EQ(c.either, 0.5);
    EXPECT_DOUBLE_EQ(c.only_compression, 0.0);
    EXPECT_DOUBLE_EQ(c.only_prefetching, 0.0);
    EXPECT_DOUBLE_EQ(c.unavoidable, 0.5);

    // A combination worse than its better half overlaps at most the
    // smaller class: 4 + 2 - 1 = 5 clamps to 2.
    c = classifyMisses(missSummary(10), missSummary(6), missSummary(8),
                       missSummary(9));
    EXPECT_DOUBLE_EQ(c.either, 0.2);
    EXPECT_DOUBLE_EQ(c.only_compression, 0.2);
    EXPECT_DOUBLE_EQ(c.only_prefetching, 0.0);
    EXPECT_DOUBLE_EQ(c.unavoidable, 0.6);
}

TEST(MissClassifyTest, PartialCountsClampAtZero)
{
    // A config with MORE misses than base must not create negative
    // avoidance.
    auto c = classifyMisses(missSummary(1), missSummary(2), missSummary(1),
                            missSummary(1));
    EXPECT_DOUBLE_EQ(c.only_compression, 0.0);
    EXPECT_DOUBLE_EQ(c.unavoidable, 1.0);

    // A super-additive combination (8 avoided against 2 + 3) leaves no
    // overlap to count.
    c = classifyMisses(missSummary(10), missSummary(8), missSummary(7),
                       missSummary(2));
    EXPECT_DOUBLE_EQ(c.either, 0.0);
    EXPECT_DOUBLE_EQ(c.only_compression, 0.2);
    EXPECT_DOUBLE_EQ(c.only_prefetching, 0.3);
    EXPECT_DOUBLE_EQ(c.unavoidable, 0.5);
}

TEST(MissClassifyTest, PrefetchesAvoidedByCompression)
{
    // Prefetching alone issues 4 L2 prefetches; with compression only 1.
    const auto base = missSummary(1);
    auto c = classifyMisses(base, base, missSummary(1, 4),
                            missSummary(1, 1));
    EXPECT_DOUBLE_EQ(c.prefetches_kept, 1.0); // of base misses
    EXPECT_DOUBLE_EQ(c.prefetches_avoided, 3.0);

    // Compression that adds prefetches avoids none.
    c = classifyMisses(base, base, missSummary(1, 1), missSummary(1, 4));
    EXPECT_DOUBLE_EQ(c.prefetches_kept, 1.0);
    EXPECT_DOUBLE_EQ(c.prefetches_avoided, 0.0);
}

TEST(ExperimentTest, MissObserverSeesEveryDemandMiss)
{
    // With prefetching on, prefetch fills must not reach the observer.
    for (const bool prefetching : {false, true}) {
        SystemConfig cfg =
            makeConfig(4, 4, false, false, prefetching, false);
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        std::uint64_t demand_misses = 0;
        std::uint64_t others = 0;
        sys.l2().setMissObserver([&](ReqType t, Addr) {
            ++(t == ReqType::Demand ? demand_misses : others);
        });
        sys.warmup(kWarm);
        sys.run(kMeasure);
        EXPECT_GT(demand_misses, 0u);
        EXPECT_EQ(demand_misses, sys.stats().counter("l2.demand_misses"));
        EXPECT_EQ(others, 0u) << "prefetching " << prefetching;
        if (prefetching) {
            EXPECT_GT(sys.stats().counter("l2.pf_fills_l2"), 0u);
        }
    }
}

} // namespace
} // namespace cmpsim
