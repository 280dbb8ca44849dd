/**
 * @file
 * Statistical sampling plan (DESIGN.md §14): the knobs of one
 * alternating fast-forward / detailed-measurement schedule, SMARTS-
 * style. A plan of N intervals measures N detailed windows of
 * detail_per_core instructions each, functionally fast-forwarding
 * ff_per_core instructions before every window.
 *
 * A plan is written as the spec
 *
 *     <ff>:<detail>:<n>[:warm<instr>]
 *
 * (SamplingPlan::parse) and runs only through MatrixSampler. A plan
 * always runs all n intervals. The optional warm<instr> suffix splits
 * each fast-forward phase SMARTS-style:
 * only the last <instr> instructions per core run in
 * functional-warming mode (cache/prefetcher state updated), the rest
 * in pure skip mode (workload and value store advance only). Without
 * the suffix the whole fast-forward phase warms.
 */

#ifndef CMPSIM_SAMPLE_SAMPLING_PLAN_H
#define CMPSIM_SAMPLE_SAMPLING_PLAN_H

#include <cstdint>
#include <string>

namespace cmpsim {

/** One statistical-sampling schedule (config.sampling). */
struct SamplingPlan
{
    /** Functional fast-forward instructions per core before each
     *  detailed interval (0 = back-to-back detailed intervals). */
    std::uint64_t ff_per_core = 0;

    /** Detailed (timed) instructions per core per interval. */
    std::uint64_t detail_per_core = 0;

    /** Detailed intervals to measure; 0 leaves sampling disarmed. */
    unsigned max_intervals = 0;

    /** "Warm the whole fast-forward phase" sentinel. */
    static constexpr std::uint64_t kWarmAll =
        ~static_cast<std::uint64_t>(0);

    /**
     * Functional-warming tail of each fast-forward phase: the last
     * warmPerCore() instructions per core update cache/prefetcher
     * state; anything before runs in pure skip mode. Defaults to the
     * whole phase.
     */
    std::uint64_t warm_per_core = kWarmAll;

    /** Warm tail clamped to the fast-forward length. */
    std::uint64_t
    warmPerCore() const
    {
        return warm_per_core < ff_per_core ? warm_per_core
                                           : ff_per_core;
    }

    /** True when a plan is active (max_intervals > 0). */
    bool armed() const { return max_intervals > 0; }

    /**
     * Parse a "<ff>:<detail>:<n>[:warm<instr>]" spec. Throws
     * ConfigError("config.sampling") on malformed input; range checks
     * live in SystemConfig::validate() so programmatic plans get the
     * same guards.
     */
    static SamplingPlan parse(const std::string &spec);
};

} // namespace cmpsim

#endif // CMPSIM_SAMPLE_SAMPLING_PLAN_H
