/**
 * @file
 * Experiment harness: runs (config, workload, seed) points, extracts
 * the paper's metrics, aggregates over seeds with 95% confidence
 * intervals [3], and computes the speedup / interaction arithmetic of
 * Section 5 (EQ 5, after Fields et al. [21]) and Figure 8's
 * miss classes.
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
 * The paper's metrics over one measured span of @p sys: the one
 * formula from counters to IPC, miss rates, MPKI, GB/s and the Table 4
 * prefetch metrics. @p t holds the span's counters: the whole registry
 * after a contiguous run(), or a sampling plan's summed interval
 * deltas (SamplingResult::totals), so fast-forward (whose counters
 * keep growing in functional mode) never leaks into measured numbers.
 * Cycles, instructions and the compression ratio come from the
 * caller, because the two kinds of span measure them differently.
 */
RunResult extractMetrics(CmpSystem &sys, const StatSnapshot &t,
                         double cycles, double instructions,
                         double compression_ratio);

/**
 * Warm @p sys up for lengths.warmup_per_core instructions per core,
 * then measure one contiguous lengths.measure_per_core window and
 * extract the metrics. A sampling plan runs only through
 * MatrixSampler (DESIGN.md §14): an armed config.sampling throws
 * ConfigError("config.sampling") before anything is simulated.
 */
RunResult warmupAndMeasure(CmpSystem &sys, const RunLengths &lengths);

/** Build a system for (@p config, @p benchmark) and
 *  warmupAndMeasure() it. */
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

/** Figure 8's six access classes, as fractions of base demand misses
 *  (the figure's 100% line). */
struct MissClassification
{
    double unavoidable = 0;        ///< missed in every config
    double only_compression = 0;   ///< avoided only by L2 compression
    double only_prefetching = 0;   ///< avoided only by L2 prefetching
    double either = 0;             ///< avoided by either technique
    double prefetches_kept = 0;    ///< L2 prefetches compression keeps
    double prefetches_avoided = 0; ///< L2 prefetches compression removes
};

/**
 * Figure 8 by global inclusion-exclusion, as the paper estimates it.
 * M is each config's seed-mean l2_demand_misses; F is the L2
 * prefetcher's seed-mean fetches (Table 4's L2 rate x instructions)
 * of the two prefetching configs:
 *
 *   a_c = max(0, M_b - M_c), a_p = max(0, M_b - M_p), a_cp = M_b - M_cp
 *   either = clamp(a_c + a_p - a_cp, 0, min(a_c, a_p))
 *   only_compression = a_c - either, only_prefetching = a_p - either
 *   unavoidable = M_b - only_compression - only_prefetching - either
 *   prefetches_kept = min(F_p, F_cp), prefetches_avoided = max(0, F_p - F_cp)
 *
 * each divided by M_b; all 0 when M_b = 0. A combination that avoids
 * more than the two techniques separately (a_cp > a_c + a_p) has no
 * overlap to count, so "either" clamps to 0 there.
 */
MissClassification classifyMisses(const MetricSummary &base,
                                  const MetricSummary &with_compression,
                                  const MetricSummary &with_prefetching,
                                  const MetricSummary &with_both);

/** Mean over seeds of the cycle counts of @p s. */
double meanCycles(const MetricSummary &s);

/** Mean of one RunResult field over seeds. */
double meanOf(const MetricSummary &s, double RunResult::*field);

} // namespace cmpsim

#endif // CMPSIM_CORE_API_EXPERIMENT_H
