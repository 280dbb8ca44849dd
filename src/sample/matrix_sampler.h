/**
 * @file
 * MatrixSampler (DESIGN.md §14): runs every statistical-sampling
 * plan — alternating functional fast-forward and detailed (timed)
 * measurement intervals — in lockstep over a matrix of
 * configurations of the same workload and seed (one system is a
 * matrix of one), sharing the pure-skip prefix of every fast-forward
 * phase. Each system's result records every interval's cycles,
 * instructions and compression ratio plus the summed stat deltas of
 * its detailed windows.
 *
 * A pure-skip phase (CoreModel::runSkip()) advances only the workload
 * generators and the value store — state that is a pure function of
 * the instruction index, identical for every configuration. So for a
 * config-matrix study (the paper's Table 5: base / prefetch /
 * compression / both over one workload) the skip work only needs to
 * be executed once per interval: the first system is the leader, runs
 * the skip with value-store journaling, and every follower adopts the
 * result (workload cursors + journal replay) at a fraction of the
 * cost. Warming and detailed measurement still run per system — they
 * touch per-config cache, prefetcher and timing state.
 *
 * The protocol is deterministic: the leader's execution is
 * byte-identical to a standalone sampled run of its config, and every
 * adoption *resynchronizes* the followers to the leader's workload
 * cursors — timed detail windows spend a total (not per-core) budget,
 * so per-core position drifts by up to one window per interval, and
 * the resync erases that drift instead of letting it accumulate. The
 * result: sample i of every system covers the same workload window —
 * the pairing that lets interaction ratios cancel common-mode phase
 * noise (see bench/table5_sampled). Follower value-store words that
 * differ at a window edge or from cross-core write interleaving take
 * the leader's value, the standard trace-driven-study semantics.
 */

#ifndef CMPSIM_SAMPLE_MATRIX_SAMPLER_H
#define CMPSIM_SAMPLE_MATRIX_SAMPLER_H

#include <cstdint>
#include <vector>

#include "src/common/stats.h"
#include "src/sample/sampling_plan.h"

namespace cmpsim {

class CmpSystem;

/** One closed detailed interval: its timed cycles, retired
 *  instructions and the L2 compression ratio at its end. */
struct IntervalSample
{
    double cycles = 0;
    double instructions = 0;
    double compression_ratio = 0;
};

/** Reduction of one completed sampling plan over one system. */
struct SamplingResult
{
    unsigned intervals = 0;      ///< intervals measured
    std::uint64_t ff_instructions = 0; ///< all cores, all FF phases

    /** Totals across detailed intervals only (FF/drain excluded). */
    double detail_cycles = 0;
    double detail_instructions = 0;

    /** Per-interval mean / 95% CI of the compression ratio; n is
     *  the measured interval count. */
    SampleSummary compression_ratio;

    /** Summed per-interval stat deltas (counter deltas over exactly
     *  the detailed windows) for derived-metric extraction. */
    StatSnapshot totals;

    /** The raw per-interval samples. Because intervals are
     *  instruction-indexed, two runs differing only in architectural
     *  knobs measure the *same* workload windows — pairing samples[i]
     *  across configs cancels the phase noise that dominates unpaired
     *  CIs (DESIGN.md §14). */
    std::vector<IntervalSample> samples;
};

/** Lockstep sampling over N same-workload, same-seed systems. */
class MatrixSampler
{
  public:
    /**
     * @p systems all armed with the same sampling plan, workload,
     * seed and core count; systems[0] leads. At least one system.
     */
    explicit MatrixSampler(std::vector<CmpSystem *> systems);

    /**
     * Drive the full plan: for each of its max_intervals intervals,
     * fast-forward ff_per_core instructions per core (the leader's
     * skip shared, the warm tail per system), then probe the
     * sample.interval fault site and measure one detailed interval of
     * detail_per_core instructions per core on each system in turn.
     * Results in systems order.
     */
    std::vector<SamplingResult> run();

  private:
    /** Measure one detailed interval on @p sys into @p r. */
    void measureInterval(CmpSystem &sys, SamplingResult &r) const;

    std::vector<CmpSystem *> systems_;
    SamplingPlan plan_;

    /** Each system's fastForwarded() at construction; its
     *  fast-forward total is the growth since. */
    std::vector<std::uint64_t> ff_start_;
};

} // namespace cmpsim

#endif // CMPSIM_SAMPLE_MATRIX_SAMPLER_H
