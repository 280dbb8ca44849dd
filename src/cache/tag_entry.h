/**
 * @file
 * One address tag in a decoupled variable-segment cache set, carrying
 * the compression tag (segment count), the paper's per-tag "prefetch"
 * bit (Section 3), and the directory state the shared L2 keeps for the
 * on-chip MSI protocol (sharer bits + owner).
 *
 * An entry whose valid bit is clear but whose line address is not
 * kAddrInvalid is a *victim tag*: it records the address of a replaced
 * block so the adaptive prefetcher can detect harmful prefetches.
 */

#ifndef CMPSIM_CACHE_TAG_ENTRY_H
#define CMPSIM_CACHE_TAG_ENTRY_H

#include <cstdint>

#include "src/cache/request_types.h"
#include "src/common/types.h"

namespace cmpsim {

/** Maximum number of cores whose sharer bits fit in the tag. */
inline constexpr unsigned kMaxCores = 16;

/** Sentinel for "no owner" in the L2 directory state. */
inline constexpr std::int8_t kNoOwner = -1;

/**
 * Tag + state for one (possibly compressed) cache line, packed into
 * 16 bytes: the line address, then the directory and compression
 * fields, then the four flags as 1-bit fields. Four tags share a
 * 64-byte host cache line, so an 8-tag set scan touches two.
 *
 * The fields fill all 16 bytes, with no padding, so a tag copies as
 * one 16-byte move. With padding GCC copies the fields as two
 * overlapping 8-byte moves, which stall store forwarding when the
 * copy goes through a stack temporary (DecoupledSet::touch's saved
 * tag).
 */
struct TagEntry
{
    /** Line-aligned address; kAddrInvalid when the tag is empty. */
    Addr line = kAddrInvalid;

    /** L2 directory: bitmask of L1 caches holding a shared copy
     *  (kMaxCores bits used; 32 wide so the fields fill the tag). */
    std::uint32_t sharers = 0;

    /** Compression tag: allocated 8-byte segments (1..8). */
    std::uint8_t segments = kSegmentsPerLine;

    /** L2 directory: L1 cache holding a modified copy, or kNoOwner. */
    std::int8_t owner = kNoOwner;

    /** Which engine prefetched this line (valid while prefetch set). */
    PfSource pf_source = PfSource::None;

    /** Data present for this tag. */
    bool valid : 1 = false;

    /** Data differs from the next level. */
    bool dirty : 1 = false;

    /** Set by a prefetch fill, cleared by the first demand access. */
    bool prefetch : 1 = false;

    /**
     * In an L1: the line was compressed in the L2 when it was filled,
     * so a hit here avoided a decompression penalty (Section 5.3
     * bookkeeping). Unused in the L2.
     */
    bool was_compressed : 1 = false;

    bool isVictimTag() const { return !valid && line != kAddrInvalid; }

    bool
    hasSharer(unsigned cpu) const
    {
        return (sharers >> cpu) & 1;
    }

    void addSharer(unsigned cpu) { sharers |= 1u << cpu; }
    void removeSharer(unsigned cpu) { sharers &= ~(1u << cpu); }
    bool anySharer() const { return sharers != 0; }
};

static_assert(sizeof(TagEntry) == 16, "TagEntry must stay 16 bytes");

} // namespace cmpsim

#endif // CMPSIM_CACHE_TAG_ENTRY_H
