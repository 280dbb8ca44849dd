/**
 * @file
 * Top-level configuration of one simulated CMP — the knobs the paper
 * varies across its experiments. Everything else (Table 1 latencies,
 * widths, table sizes) is fixed at the paper's values but remains
 * overridable through the derived parameter structs.
 */

#ifndef CMPSIM_CORE_API_SYSTEM_CONFIG_H
#define CMPSIM_CORE_API_SYSTEM_CONFIG_H

#include <cstdint>

#include "src/cache/l1_cache.h"
#include "src/cache/l2_cache.h"
#include "src/core/core_model.h"
#include "src/mem/main_memory.h"
#include "src/prefetch/stride_prefetcher.h"
#include "src/sample/sampling_plan.h"

namespace cmpsim {

/**
 * One experimental configuration (a bar in the paper's figures).
 * makeConfig() applies the CMPSIM_* environment knobs
 * (src/core_api/env_knobs.h) to the fields they name; a field set
 * after makeConfig() wins.
 */
struct SystemConfig
{
    /** Number of single-threaded cores (paper default: 8). */
    unsigned cores = 8;

    /**
     * Capacity scale divisor: caches and workload footprints shrink
     * together so shapes are preserved while runs stay fast. scale=1
     * is the paper's full-size system (4 MB L2, 64 KB L1s).
     */
    unsigned scale = 1;

    /** Store L2 lines FPC-compressed (decoupled variable-segment). */
    bool cache_compression = false;

    /** Compress data payloads on the pin interface. */
    bool link_compression = false;

    /** Enable the L1I/L1D/L2 stride prefetchers. */
    bool prefetching = false;

    /** Enable the adaptive throttling mechanism (Section 3). */
    bool adaptive_prefetch = false;

    /** Pin bandwidth in GB/s (Figure 11 sweeps 10-80). */
    double pin_bandwidth_gbps = 20.0;

    /** Remove link queuing to measure bandwidth *demand* (EQ 1). */
    bool infinite_bandwidth = false;

    /** RNG seed (vary across runs for confidence intervals). */
    std::uint64_t seed = 1;

    // ---- CPI-stack attribution (DESIGN.md Section 9) ----

    /**
     * Arm the cycle-accounting CPI-stack and miss-genealogy layer:
     * per-core leaf-cause attribution of every elapsed cycle plus
     * per-request journey records with per-segment latency histograms.
     * Pure observation — simulated results are byte-identical armed or
     * not — and its stats land in a *separate* registry
     * (CmpSystem::cpiStats()) so default stat
     * dumps and determinism fingerprints never change. Excluded
     * from pointSpecBytes() like the other observation knobs.
     */
    bool cpi_stack = false;

    // ---- ablation knobs (DESIGN.md Section 4) ----

    /** One L2 prefetcher shared by all cores instead of per-core. */
    bool shared_l2_prefetcher = false;

    /** L1 prefetches train the L2 prefetcher (paper's choice). */
    bool l1_prefetch_triggers_l2 = true;

    /** Extra victim-only tags per set in *uncompressed* adaptive
     *  configs (the paper's "four extra tags per set"). */
    unsigned extra_victim_tags = 4;

    /** Startup prefetch depths (Table 1: 6 for L1, 25 for L2). */
    unsigned l1_startup_prefetches = 6;
    unsigned l2_startup_prefetches = 25;

    /** Decompression pipeline depth in cycles (Table 1: 5). */
    Cycle decompression_latency = 5;

    /** ISCA'04 adaptive compression policy (the paper runs it but it
     *  "always adapted to compress" for these workloads). */
    bool adaptive_compression = false;

    /** Use 64 segments/set for the compressed L2 instead of 32 (the
     *  paper text's ambiguous alternative geometry; see DESIGN.md). */
    bool wide_compressed_sets = false;

    // ---- statistical sampling (DESIGN.md Section 14) ----

    /**
     * Statistical sampling plan, armed when max_intervals > 0: the
     * alternating fast-forward / detailed-interval schedule that
     * MatrixSampler executes over this system. warmupAndMeasure(), and
     * so every runner point, refuses an armed plan with
     * ConfigError("config.sampling"). pointSpecBytes() appends the
     * plan only when armed, so an armed spec never shares a journal
     * key with its unsampled twin. Refused in combination with the
     * CPI-stack layer (attribution windows do not span the
     * fast-forward gaps between intervals).
     */
    SamplingPlan sampling;

    // ---- invariant audits (DESIGN.md Section 6) ----

    /**
     * Run the full invariant audit every this many cycles of timed
     * simulation (plus once at end-of-run), and verify an FPC
     * compress -> decompress round-trip of the line's value on every
     * L2 fill. 0 disables both — the Release default; tests and CI
     * audit legs turn it on.
     */
    Cycle audit_interval = 0;

    // ---- failure model (DESIGN.md Section 8) ----

    /**
     * No-forward-progress watchdog: if no core retires a single
     * instruction across this many cycles of timed simulation, run()
     * throws WatchdogTimeout with an event-queue/core diagnostic
     * instead of spinning forever. 0 disables. The default is far
     * above any legitimate stall (DRAM latency is 400 cycles; link
     * backlogs reach thousands).
     */
    Cycle watchdog_cycles = 2'000'000;

    /**
     * Reject impossible configurations (zero cores/ways, non-power-of-
     * two set counts, inconsistent link widths, ...) by throwing
     * ConfigError with the offending knob as context. Called by
     * CmpSystem's constructor, so every entry point — CLI, benches,
     * the parallel runner — fails with a catchable, structured error
     * instead of building a broken system.
     */
    void validate() const;

    // ---- derived parameter blocks ----

    L1Params l1Params() const;
    L2Params l2Params() const;
    MemoryParams memoryParams() const;
    CoreParams coreParams() const;
    PrefetcherParams l1PrefetcherParams() const;
    PrefetcherParams l2PrefetcherParams() const;

    /** Pin bytes per core cycle for @p gbps. */
    static double
    bytesPerCycle(double gbps)
    {
        return gbps / kClockGHz;
    }
};

/** Convenience factory covering the paper's standard config matrix,
 *  and the only place a SystemConfig takes values from the
 *  environment. */
SystemConfig makeConfig(unsigned cores, unsigned scale,
                        bool cache_compression, bool link_compression,
                        bool prefetching, bool adaptive,
                        double pin_bandwidth_gbps = 20.0);

} // namespace cmpsim

#endif // CMPSIM_CORE_API_SYSTEM_CONFIG_H
