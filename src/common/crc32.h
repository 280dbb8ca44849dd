/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for the point journal's
 * per-record integrity checks. Table-driven, incremental-friendly: feed
 * the previous return value back in as `seed` to extend a running
 * checksum over multiple buffers.
 */

#ifndef CMPSIM_COMMON_CRC32_H
#define CMPSIM_COMMON_CRC32_H

#include <cstddef>
#include <cstdint>

namespace cmpsim {

/** CRC-32 of `data[0..len)`, continuing from `seed` (0 to start). */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

} // namespace cmpsim

#endif // CMPSIM_COMMON_CRC32_H
