/**
 * @file
 * Experiment harness: runs (config, workload, seed) points, extracts
 * the paper's metrics, aggregates over seeds with 95% confidence
 * intervals [3], and computes the speedup / interaction arithmetic of
 * Section 5 (EQ 5, after Fields et al. [21]).
 */

#ifndef CMPSIM_CORE_API_EXPERIMENT_H
#define CMPSIM_CORE_API_EXPERIMENT_H

#include <string>
#include <vector>

#include "src/core_api/cmp_system.h"
#include "src/workload/workload_params.h"

namespace cmpsim {

/** Metrics extracted from one simulation run. */
struct RunResult
{
    double cycles = 0;
    double instructions = 0;
    double ipc = 0;

    // L2 behaviour.
    double l2_demand_misses = 0;
    double l2_demand_accesses = 0;
    double l2_miss_rate = 0;                  ///< misses / accesses
    double l2_misses_per_kilo_instr = 0;

    // Off-chip.
    double bandwidth_gbps = 0;

    // Compression.
    double compression_ratio = 1.0;
    double penalized_hits = 0;

    // Prefetching (Table 4 metrics per prefetcher level).
    struct PfMetrics
    {
        double rate_per_kilo_instr = 0; ///< EQ 2
        double coverage_pct = 0;        ///< EQ 3
        double accuracy_pct = 0;        ///< EQ 4
    };
    PfMetrics l1i, l1d, l2pf;

    // Adaptive mechanism.
    double l2_adaptive_counter = 0;
    double useful_prefetches = 0;
    double useless_prefetches = 0;
    double harmful_flags = 0;
    double victim_tags_per_set = 0;

    /**
     * Statistical sampling (DESIGN.md §14): populated when the run
     * used an armed config.sampling plan. The headline fields above
     * then aggregate over exactly the detailed intervals (counter
     * deltas bracketing each measured window), and these summaries
     * carry the per-interval mean / 95% CI of each metric.
     */
    struct SampledMetrics
    {
        bool armed = false;
        unsigned intervals = 0;     ///< intervals measured
        double ff_instructions = 0; ///< fast-forwarded, all cores

        SampleSummary cycles;
        SampleSummary ipc;
        SampleSummary l2_miss_rate;
        SampleSummary l2_mpki;
        SampleSummary bandwidth_gbps;
        SampleSummary compression_ratio;
    };
    SampledMetrics sampled;
};

/** Per-core run lengths. The defaults are the bench suite's; the
 *  CMPSIM_WARMUP / CMPSIM_MEASURE knobs override them
 *  (src/core_api/env_knobs.h). */
struct RunLengths
{
    std::uint64_t warmup_per_core = 400000;
    std::uint64_t measure_per_core = 50000;
};

/**
 * Build a system, warm it up, run it, and extract metrics. When
 * config.sampling is armed the run executes the sampling plan instead
 * of one contiguous lengths.measure_per_core window (which is then
 * ignored — the plan's detail_per_core defines the measured length)
 * and RunResult::sampled carries the per-interval CIs.
 */
RunResult runOnce(const SystemConfig &config,
                  const std::string &benchmark,
                  const RunLengths &lengths);

/** Multi-seed aggregate of a metric extracted per run. */
struct MetricSummary
{
    SampleSummary cycles;
    /** Over-seed IPC summary. Recomputed from runs wherever cycles
     *  is (aggregatePoint), never serialized: journal bodies written
     *  before it existed parse unchanged. */
    SampleSummary ipc;
    std::vector<RunResult> runs;
};

/** Speedup of @p enhanced over @p base (both in cycles). */
inline double
speedup(double base_cycles, double enhanced_cycles)
{
    return base_cycles / enhanced_cycles;
}

/**
 * Interaction(A, B) per EQ 5:
 *   Speedup(A,B) = Speedup(A) x Speedup(B) x (1 + Interaction(A,B)).
 */
inline double
interaction(double speedup_a, double speedup_b, double speedup_ab)
{
    return speedup_ab / (speedup_a * speedup_b) - 1.0;
}

/** Mean over seeds of the cycle counts of @p s. */
double meanCycles(const MetricSummary &s);

/** Mean of one RunResult field over seeds. */
double meanOf(const MetricSummary &s, double RunResult::*field);

} // namespace cmpsim

#endif // CMPSIM_CORE_API_EXPERIMENT_H
