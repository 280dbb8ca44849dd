#include "src/core_api/experiment.h"

#include <algorithm>

#include "src/common/sim_error.h"

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

} // namespace

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

    r.bandwidth_gbps =
        r.cycles > 0 ? counter("mem.link.bytes") / r.cycles * kClockGHz
                     : 0;
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

RunResult
warmupAndMeasure(CmpSystem &sys, const RunLengths &lengths)
{
    if (sys.config().sampling.armed()) {
        throw ConfigError("config.sampling",
                          "a sampling plan runs only through "
                          "MatrixSampler, not as a warmup + measured "
                          "point");
    }
    sys.warmup(lengths.warmup_per_core);
    sys.run(lengths.measure_per_core);
    return extractMetrics(sys, sys.stats().snapshot(),
                          static_cast<double>(sys.cycles()),
                          static_cast<double>(sys.instructions()),
                          sys.compressionRatio());
}

RunResult
runOnce(const SystemConfig &config, const std::string &benchmark,
        const RunLengths &lengths)
{
    CmpSystem sys(config, benchmarkParams(benchmark));
    return warmupAndMeasure(sys, lengths);
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

MissClassification
classifyMisses(const MetricSummary &base,
               const MetricSummary &with_compression,
               const MetricSummary &with_prefetching,
               const MetricSummary &with_both)
{
    MissClassification out;
    const double m_b = meanOf(base, &RunResult::l2_demand_misses);
    if (m_b == 0)
        return out;
    auto avoided = [m_b](const MetricSummary &s) {
        return m_b - meanOf(s, &RunResult::l2_demand_misses);
    };
    const double a_c = std::max(0.0, avoided(with_compression));
    const double a_p = std::max(0.0, avoided(with_prefetching));
    const double a_cp = avoided(with_both);
    const double either =
        std::clamp(a_c + a_p - a_cp, 0.0, std::min(a_c, a_p));
    const double only_c = a_c - either, only_p = a_p - either;
    out.unavoidable = (m_b - only_c - only_p - either) / m_b;
    out.only_compression = only_c / m_b;
    out.only_prefetching = only_p / m_b;
    out.either = either / m_b;

    auto l2_prefetches = [](const MetricSummary &s) {
        double total = 0;
        for (const auto &r : s.runs)
            total += r.l2pf.rate_per_kilo_instr * r.instructions / 1000.0;
        return s.runs.empty() ? 0
                              : total / static_cast<double>(s.runs.size());
    };
    const double f_p = l2_prefetches(with_prefetching);
    const double f_cp = l2_prefetches(with_both);
    out.prefetches_kept = std::min(f_p, f_cp) / m_b;
    out.prefetches_avoided = std::max(0.0, f_p - f_cp) / m_b;
    return out;
}

} // namespace cmpsim
