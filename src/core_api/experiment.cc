#include "src/core_api/experiment.h"

#include "src/sample/sampling_controller.h"

namespace cmpsim {

namespace {

RunResult::PfMetrics
pfMetrics(double issued, double hits, double demand_misses,
          double kilo_instr)
{
    RunResult::PfMetrics m;
    m.rate_per_kilo_instr = kilo_instr > 0 ? issued / kilo_instr : 0;
    const double denom = hits + demand_misses;
    m.coverage_pct = denom > 0 ? 100.0 * hits / denom : 0;
    m.accuracy_pct = issued > 0 ? 100.0 * hits / issued : 0;
    return m;
}

/** Sum a per-core counter family ("l1d.<cpu>.<leaf>") out of @p t. */
double
l1Sum(const StatSnapshot &t, unsigned cores, const char *side,
      const char *leaf)
{
    std::uint64_t total = 0;
    for (unsigned c = 0; c < cores; ++c) {
        total += t.counter(std::string(side) + "." + std::to_string(c) +
                           "." + leaf);
    }
    return static_cast<double>(total);
}

/**
 * The paper's metrics over one measured span. @p t holds the span's
 * counters: the whole registry after an unsampled run(), or the summed
 * detail-interval deltas of a sampled run, so fast-forward (whose
 * counters keep growing in functional mode) never leaks into measured
 * numbers. Cycles, instructions and the compression ratio come from
 * the caller, because the two kinds of run measure them differently.
 */
RunResult
extractMetrics(CmpSystem &sys, const StatSnapshot &t, double cycles,
               double instructions, double compression_ratio)
{
    const SystemConfig &config = sys.config();
    auto counter = [&](const char *name) {
        return static_cast<double>(t.counter(name));
    };

    RunResult r;
    r.cycles = cycles;
    r.instructions = instructions;
    r.ipc = cycles > 0 ? instructions / cycles : 0;

    r.l2_demand_misses = counter("l2.demand_misses");
    r.l2_demand_accesses = counter("l2.demand_accesses");
    r.l2_miss_rate = r.l2_demand_accesses > 0
                         ? r.l2_demand_misses / r.l2_demand_accesses
                         : 0;
    const double kilo_instr = r.instructions / 1000.0;
    r.l2_misses_per_kilo_instr =
        kilo_instr > 0 ? r.l2_demand_misses / kilo_instr : 0;

    r.bandwidth_gbps = r.cycles > 0
                           ? counter("mem.link.bytes") / r.cycles * 5.0
                           : 0; // 5 GHz, GB = 1e9 bytes
    r.compression_ratio = compression_ratio;
    r.penalized_hits = counter("l2.penalized_hits");

    if (config.prefetching) {
        const unsigned cores = config.cores;
        r.l1i = pfMetrics(l1Sum(t, cores, "l1i", "pf_issued"),
                          l1Sum(t, cores, "l1i", "pf_hits"),
                          l1Sum(t, cores, "l1i", "misses"), kilo_instr);
        r.l1d = pfMetrics(l1Sum(t, cores, "l1d", "pf_issued"),
                          l1Sum(t, cores, "l1d", "pf_hits"),
                          l1Sum(t, cores, "l1d", "misses"), kilo_instr);
        r.l2pf = pfMetrics(counter("l2.l2pf_issued"),
                           counter("l2.pf_hits_l2"), r.l2_demand_misses,
                           kilo_instr);

        r.l2_adaptive_counter = sys.l2Adaptive().counterValue();
        r.useful_prefetches = counter("ad.l2.useful");
        r.useless_prefetches = counter("ad.l2.useless");
        r.harmful_flags = counter("ad.l2.harmful");
    }
    r.victim_tags_per_set = sys.l2().meanVictimTags();
    return r;
}

/** Drive the sampling plan, then extract the metrics over its
 *  detailed intervals and attach the per-interval CIs. */
RunResult
runSampled(CmpSystem &sys)
{
    SamplingController ctl(sys);
    const SamplingResult res = ctl.run();

    RunResult r = extractMetrics(sys, res.totals, res.detail_cycles,
                                 res.detail_instructions,
                                 res.compression_ratio.mean);
    r.sampled.armed = true;
    r.sampled.intervals = res.intervals;
    r.sampled.ff_instructions =
        static_cast<double>(res.ff_instructions);
    r.sampled.cycles = res.cycles;
    r.sampled.ipc = res.ipc;
    r.sampled.l2_miss_rate = res.l2_miss_rate;
    r.sampled.l2_mpki = res.l2_mpki;
    r.sampled.bandwidth_gbps = res.bandwidth_gbps;
    r.sampled.compression_ratio = res.compression_ratio;
    return r;
}

} // namespace

RunResult
runOnce(const SystemConfig &config, const std::string &benchmark,
        const RunLengths &lengths)
{
    CmpSystem sys(config, benchmarkParams(benchmark));
    sys.warmup(lengths.warmup_per_core);
    if (config.sampling.armed())
        return runSampled(sys);
    sys.run(lengths.measure_per_core);
    return extractMetrics(sys, sys.stats().snapshot(),
                          static_cast<double>(sys.cycles()),
                          static_cast<double>(sys.instructions()),
                          sys.compressionRatio());
}

double
meanCycles(const MetricSummary &s)
{
    return s.cycles.mean;
}

double
meanOf(const MetricSummary &s, double RunResult::*field)
{
    double total = 0;
    for (const auto &r : s.runs)
        total += r.*field;
    return s.runs.empty() ? 0 : total / static_cast<double>(s.runs.size());
}

} // namespace cmpsim
