/**
 * @file
 * The synthetic per-core instruction stream: a code walker with
 * far branches over a shared instruction footprint, plus a data side
 * mixing strided streams (with finite lifetimes), Zipf-skewed random
 * accesses over a private working set, and accesses to a shared
 * read-write region that exercise the MSI protocol.
 *
 * Lines are given values from the workload's ValueProfile on first
 * touch, so compression ratios emerge from real FPC runs over real
 * bytes.
 */

#ifndef CMPSIM_WORKLOAD_SYNTHETIC_WORKLOAD_H
#define CMPSIM_WORKLOAD_SYNTHETIC_WORKLOAD_H

#include "src/common/random.h"
#include "src/core/instruction.h"
#include "src/mem/value_store.h"
#include "src/workload/workload_params.h"

namespace cmpsim {

/** Address-space layout shared by all synthetic workloads. */
namespace layout {
inline constexpr Addr kCodeBase = 0x1'0000'0000ULL;
inline constexpr Addr kSharedBase = 0x2'0000'0000ULL;
inline constexpr Addr kPrivateBase = 0x4'0000'0000ULL;
inline constexpr Addr kPrivateStride = 0x0'4000'0000ULL; // per core

/** Simulated OS page size for virtual->physical scattering. */
inline constexpr Addr kPageBytes = 8192;

/**
 * Deterministic, bijective virtual-to-physical page mapping. Without
 * it, every region base would alias onto cache set 0 the way no real
 * physical address stream does; full-system simulators get this
 * scattering for free from OS page allocation. The multiplier is odd,
 * so the mapping is a bijection on page numbers, and it is shared by
 * all cores (the same virtual page must land on the same physical
 * page for sharing and coherence to work).
 */
constexpr Addr
translate(Addr vaddr)
{
    const Addr page = vaddr / kPageBytes;
    // splitmix64 finalizer: bijective on 64-bit page numbers and,
    // unlike a plain multiply, mixes high bits into the low bits that
    // become cache set indices (a multiply preserves structure mod
    // powers of two, which is exactly the aliasing to avoid).
    Addr z = page;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    // Truncate to keep page*size below 2^64. The truncation gives up
    // strict bijectivity; with the few thousand distinct pages a
    // workload touches, the collision probability is ~2^-40.
    const Addr phys_page = z % (1ULL << 51);
    return phys_page * kPageBytes + (vaddr % kPageBytes);
}
} // namespace layout

/** One core's synthetic instruction stream. */
class SyntheticWorkload : public InstructionStream
{
  public:
    /**
     * @param params workload description (already scaled)
     * @param values backing store to populate on first touch
     * @param cpu this core's index (selects the private region)
     * @param seed per-run seed; each core derives its own stream
     */
    SyntheticWorkload(const WorkloadParams &params, ValueStore &values,
                      unsigned cpu, std::uint64_t seed);

    Instruction next() override;

    const WorkloadParams &params() const { return params_; }

    /**
     * Copy the generator cursor (RNG, pc, stream/loop positions,
     * record state) from a lockstep twin — another instance built
     * with the same params/cpu/seed that has advanced further. After
     * the copy this stream produces exactly the instructions the twin
     * would produce next. The follower half of shared-prefix
     * fast-forward (DESIGN.md §14).
     */
    void copyStateFrom(const SyntheticWorkload &other);

  private:
    struct Stream
    {
        Addr cur = 0;
        int stride = 8;
        std::uint64_t remaining = 0; // accesses left
    };

    struct Loop
    {
        Addr base = 0;
        std::vector<std::uint32_t> order; ///< shuffled line visit order
        std::uint64_t pos = 0;
        unsigned on_record = 0; // accesses left on the current line
        double cum_weight = 0;  // cumulative selection threshold
    };

    Addr privateBase() const;

    /** Pick the data address for a load/store. */
    Addr pickDataAddr();

    /** (Re)start stream @p s at a random array position. */
    void resetStream(Stream &s);

    /** Ensure the line holding @p addr has values. */
    void touchLine(Addr addr);

    WorkloadParams params_;
    ValueStore &values_;
    ValueGenerator value_gen_;
    unsigned cpu_;
    Random rng_;

    /** Zipf envelopes of the four skewed regions, fixed by params_. */
    ZipfEnvelope zipf_shared_;
    ZipfEnvelope zipf_hot_;
    ZipfEnvelope zipf_private_;
    ZipfEnvelope zipf_code_;

    /** Advance one permuted loop and return the touched address. */
    Addr advanceLoop();

    Addr pc_;
    Addr repeat_line_ = 0;     ///< record being re-touched
    unsigned repeat_left_ = 0; ///< further touches of that record
    bool last_was_loop_ = false; ///< marks chained (pointer) accesses
    std::vector<Stream> streams_;
    std::vector<Addr> recent_bases_; ///< for stream_reuse
    std::vector<Loop> loops_;
};

} // namespace cmpsim

#endif // CMPSIM_WORKLOAD_SYNTHETIC_WORKLOAD_H
