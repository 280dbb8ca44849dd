/**
 * @file
 * Parameter block describing one synthetic workload model. The eight
 * instances in benchmarks.cc stand in for the paper's commercial
 * (apache, zeus, oltp, jbb) and SPEComp (art, apsi, fma3d, mgrid)
 * workloads; see DESIGN.md for the substitution rationale and the
 * calibration targets each parameter encodes.
 */

#ifndef CMPSIM_WORKLOAD_WORKLOAD_PARAMS_H
#define CMPSIM_WORKLOAD_WORKLOAD_PARAMS_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/value_profile.h"

namespace cmpsim {

/** Full description of one synthetic workload. */
struct WorkloadParams
{
    std::string name = "synthetic";

    // ---- instruction mix (fractions of dynamic instructions) ----
    double load_frac = 0.25;
    double store_frac = 0.10;
    double branch_frac = 0.15;

    /** Probability a branch is mispredicted (redirect stall). */
    double mispredict_rate = 0.05;

    /** Probability a branch jumps to a random spot in the code. */
    double branch_far_frac = 0.15;

    // ---- code footprint (shared by all cores) ----
    std::uint64_t i_footprint = 256 * 1024;

    // ---- data footprints ----
    /** Private data bytes per core. */
    std::uint64_t ws_private = 512 * 1024;

    /** Shared read-write region bytes. */
    std::uint64_t ws_shared = 512 * 1024;

    /** Fraction of data accesses that hit the shared region. */
    double shared_frac = 0.08;

    // ---- strided streams (what the prefetchers can catch) ----
    /** Fraction of data accesses issued by strided streams. */
    double stride_frac = 0.35;

    /** Fraction of stream accesses that are serially dependent (the
     *  stream walks a linked chain of sequentially allocated buffers,
     *  the common slab layout): strided in address — so prefetchable —
     *  but latency-critical, which is what makes stream coverage pay. */
    double stream_chain = 0.0;

    /** Region the strided streams walk (0 = use ws_private). Sized
     *  larger than the cache, with stream_reuse deciding how often a
     *  walk revisits a recent (cache-resident) array. */
    std::uint64_t ws_stream = 0;

    /** Concurrent streams per core. */
    unsigned stream_count = 4;

    /** Stream lifetime in lines before it re-randomizes. Short
     *  streams are the paper's commercial workloads (startup
     *  prefetches overshoot -> low accuracy); long streams are
     *  SPEComp (high accuracy/coverage). */
    unsigned stream_len_min = 8;
    unsigned stream_len_max = 32;

    /** Per-access element strides in bytes (negative = descending;
     *  |stride| < 64 walks within lines -> unit line stride). */
    std::vector<int> stride_bytes = {8, 8, 8, -8, 64, 128};

    /**
     * Probability that a restarting stream re-walks a recently used
     * array instead of a fresh random one. High for servers that
     * reuse buffers (their streamed data mostly hits the L2); low for
     * scientific sweeps over grids larger than the cache.
     */
    double stream_reuse = 0.5;

    /** Zipf exponent of the random (non-strided) private accesses. */
    double zipf_s = 0.6;

    /**
     * Hot-structure model: fraction of random private accesses that
     * go to a small per-core hot region (stack frames, top-level
     * objects) of ws_hot bytes. This is what gives real workloads
     * their high L1 hit rates independently of the L2-sized working
     * set.
     */
    double hot_frac = 0.0;
    std::uint64_t ws_hot = 8 * 1024;

    /** Zipf exponent of far-branch targets over the code footprint. */
    double code_zipf = 0.8;

    /**
     * Permuted loops: cyclic walks over fixed-size per-core arrays in
     * a shuffled (pseudo-random but repeating) order — the synthetic
     * stand-in for hash-table and pointer-structure traversals. Every
     * access to a loop has reuse distance equal to the loop size, so
     * loops sized just beyond the cache are exactly the "critical
     * working set" misses that cache compression recovers, while
     * staying invisible to a stride prefetcher.
     */
    struct LoopSpec
    {
        std::uint64_t bytes; ///< loop array size (full scale)
        double weight;       ///< relative access weight
    };
    std::vector<LoopSpec> loops;

    /** Fraction of data accesses that advance a permuted loop. */
    double loop_frac = 0.0;

    /** Consecutive accesses to each loop record (line) before moving
     *  to the next one; >1 models multi-word records and gives loops
     *  a realistic L1 hit component. */
    unsigned loop_record = 4;

    /** Same idea for shared/hot/cold random accesses: consecutive
     *  touches of one record before picking a new address. */
    unsigned record_accesses = 4;

    // ---- data values (compressibility) ----
    ValueProfile values;

    /** Divide every footprint by @p scale (tracks the cache scale). */
    WorkloadParams
    scaled(unsigned scale) const
    {
        WorkloadParams p = *this;
        if (scale > 1) {
            p.i_footprint = std::max<std::uint64_t>(
                p.i_footprint / scale, 4 * kLineBytes);
            p.ws_private = std::max<std::uint64_t>(
                p.ws_private / scale, 16 * kLineBytes);
            p.ws_shared = std::max<std::uint64_t>(
                p.ws_shared / scale, 16 * kLineBytes);
            p.ws_hot = std::max<std::uint64_t>(p.ws_hot / scale,
                                               8 * kLineBytes);
            if (p.ws_stream > 0) {
                p.ws_stream = std::max<std::uint64_t>(
                    p.ws_stream / scale, 64 * kLineBytes);
            }
            for (auto &loop : p.loops) {
                loop.bytes = std::max<std::uint64_t>(
                    loop.bytes / scale, 8 * kLineBytes);
            }
        }
        return p;
    }
};

/** The eight paper workloads by name; an unknown name throws
 *  WorkloadError. */
WorkloadParams benchmarkParams(const std::string &name);

/** Names of all eight workloads, commercial first (paper order). */
const std::vector<std::string> &benchmarkNames();

/** True for the four commercial workloads. */
bool isCommercial(const std::string &name);

} // namespace cmpsim

#endif // CMPSIM_WORKLOAD_WORKLOAD_PARAMS_H
