#include "src/common/crc32.h"

#include <array>

namespace cmpsim {

namespace {

constexpr std::array<std::uint32_t, 256>
makeTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kTable = makeTable();

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < len; ++i)
        c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return ~c;
}

} // namespace cmpsim
