/**
 * @file
 * Fundamental scalar types and line-geometry constants shared by every
 * cmpsim module.
 */

#ifndef CMPSIM_COMMON_TYPES_H
#define CMPSIM_COMMON_TYPES_H

#include <cstdint>
#include <limits>

namespace cmpsim {

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Simulated clock cycle of the core clock. */
using Cycle = std::uint64_t;

/** The core clock in GHz: bytes per cycle x kClockGHz = GB/s
 *  (GB = 1e9 bytes). */
inline constexpr double kClockGHz = 5.0;

/** Sentinel for "no cycle scheduled / never". */
inline constexpr Cycle kCycleNever = std::numeric_limits<Cycle>::max();

/** Sentinel for "no address". */
inline constexpr Addr kAddrInvalid = std::numeric_limits<Addr>::max();

/** Cache line size in bytes; fixed at 64 throughout the paper. */
inline constexpr unsigned kLineBytes = 64;

/** log2(kLineBytes). */
inline constexpr unsigned kLineShift = 6;

/** Compression segment size in bytes (one off-chip flit payload). */
inline constexpr unsigned kSegmentBytes = 8;

/** Number of 8-byte segments in an uncompressed line. */
inline constexpr unsigned kSegmentsPerLine = kLineBytes / kSegmentBytes;

/** Number of 32-bit words in a cache line (FPC compresses word-wise). */
inline constexpr unsigned kWordsPerLine = kLineBytes / 4;

/** Off-chip message header size in bytes (address + length + meta). */
inline constexpr unsigned kMessageHeaderBytes = 8;

/** Return the line-aligned address containing @p a. */
constexpr Addr
lineAddr(Addr a)
{
    return a & ~static_cast<Addr>(kLineBytes - 1);
}

/** Return the line number (address >> log2(line size)). */
constexpr Addr
lineNumber(Addr a)
{
    return a >> kLineShift;
}

/** Byte offset of @p a within its cache line. */
constexpr unsigned
lineOffset(Addr a)
{
    return static_cast<unsigned>(a & (kLineBytes - 1));
}

} // namespace cmpsim

#endif // CMPSIM_COMMON_TYPES_H
