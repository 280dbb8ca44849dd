/**
 * @file
 * MatrixSampler (DESIGN.md §14): lockstep sampled execution of one
 * plan over a matrix of configurations of the same workload and seed,
 * sharing the pure-skip prefix of every fast-forward phase.
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
 *
 * The CI stopping rule is ignored (a fixed interval count keeps the
 * systems in lockstep); it remains a feature of the single-system
 * SamplingController path.
 */

#ifndef CMPSIM_SAMPLE_MATRIX_SAMPLER_H
#define CMPSIM_SAMPLE_MATRIX_SAMPLER_H

#include <vector>

#include "src/sample/sampling_controller.h"

namespace cmpsim {

class CmpSystem;

/** Lockstep sampling over N same-workload, same-seed systems. */
class MatrixSampler
{
  public:
    /**
     * @p systems all armed with the same sampling plan, workload,
     * seed and core count; systems[0] leads. At least one system.
     */
    explicit MatrixSampler(std::vector<CmpSystem *> systems);

    /** Drive the full plan; results in systems order. */
    std::vector<SamplingResult> run();

  private:
    std::vector<CmpSystem *> systems_;
    std::vector<SamplingController> controllers_;
};

} // namespace cmpsim

#endif // CMPSIM_SAMPLE_MATRIX_SAMPLER_H
