#include "src/compression/fpc.h"

namespace cmpsim {

namespace {

/** True when @p w equals its low @p n bits sign-extended to 32. */
bool
fitsSigned(std::uint32_t w, unsigned n)
{
    const auto v = static_cast<std::int32_t>(w);
    const std::int32_t lo = -(1 << (n - 1));
    const std::int32_t hi = (1 << (n - 1)) - 1;
    return v >= lo && v <= hi;
}

/** True when halfword @p h is a sign-extended byte. */
bool
halfIsSeByte(std::uint16_t h)
{
    const auto v = static_cast<std::int16_t>(h);
    return v >= -128 && v <= 127;
}

} // namespace

FpcCompressor::Pattern
FpcCompressor::classify(std::uint32_t w)
{
    if (w == 0)
        return ZeroRun;
    if (fitsSigned(w, 4))
        return Se4;
    if (fitsSigned(w, 8))
        return Se8;
    if (fitsSigned(w, 16))
        return Se16;
    if ((w & 0xffffu) == 0)
        return LowerZero;
    if (halfIsSeByte(static_cast<std::uint16_t>(w & 0xffffu)) &&
        halfIsSeByte(static_cast<std::uint16_t>(w >> 16))) {
        return TwoSeBytes;
    }
    const std::uint32_t b = w & 0xffu;
    if (w == (b | (b << 8) | (b << 16) | (b << 24)))
        return RepeatedByte;
    return Raw;
}

unsigned
FpcCompressor::dataBits(Pattern p)
{
    switch (p) {
      case ZeroRun:
        return 3;
      case Se4:
        return 4;
      case Se8:
        return 8;
      case Se16:
      case LowerZero:
      case TwoSeBytes:
        return 16;
      case RepeatedByte:
        return 8;
      case Raw:
        return 32;
    }
    cmpsim_panic("bad FPC pattern %u", static_cast<unsigned>(p));
}

CompressedSize
FpcCompressor::compress(const LineData &line, BitStream *out) const
{
    if (out)
        out->clear();

    // Count the encoded bits, emitting the stream only when the caller
    // asked for it: the size needs the count alone.
    // Zero runs of up to 8 words share one (prefix, length) tuple.
    unsigned bits = 0;
    const bool emit = out != nullptr;

    unsigned i = 0;
    while (i < kWordsPerLine) {
        const std::uint32_t w = lineWord(line, i);
        const Pattern p = classify(w);
        if (p == ZeroRun) {
            unsigned run = 1;
            while (run < 8 && i + run < kWordsPerLine &&
                   lineWord(line, i + run) == 0) {
                ++run;
            }
            bits += 3 + 3;
            if (emit) {
                out->put(ZeroRun, 3);
                out->put(run - 1, 3);
            }
            i += run;
            continue;
        }

        const unsigned db = dataBits(p);
        bits += 3 + db;
        if (emit) {
            out->put(p, 3);
            std::uint64_t payload = 0;
            switch (p) {
              case Se4:
              case Se8:
              case Se16:
              case Raw:
                payload = w;
                break;
              case LowerZero:
                payload = w >> 16;
                break;
              case TwoSeBytes:
                // low byte of each halfword, low halfword first
                payload = (w & 0xffu) | (((w >> 16) & 0xffu) << 8);
                break;
              case RepeatedByte:
                payload = w & 0xffu;
                break;
              case ZeroRun:
                break; // handled above
            }
            out->put(payload, db);
        }
        ++i;
    }

    CompressedSize size;
    size.bits = bits;
    size.segments = segmentsForBits(bits);

    if (size.segments >= kSegmentsPerLine) {
        // Not worth compressing: store raw.
        size.bits = kLineBytes * 8;
        size.segments = kSegmentsPerLine;
        if (out) {
            out->clear();
            for (unsigned q = 0; q < kLineBytes / 8; ++q)
                out->put(lineQword(line, q), 64);
        }
    }
    return size;
}

LineData
FpcCompressor::decompress(const BitStream &encoded,
                          const CompressedSize &size) const
{
    LineData line{};
    BitReader rd(encoded);

    if (!size.isCompressed()) {
        for (unsigned q = 0; q < kLineBytes / 8; ++q)
            setLineQword(line, q, rd.get(64));
        return line;
    }

    unsigned i = 0;
    while (i < kWordsPerLine) {
        const auto p = static_cast<Pattern>(rd.get(3));
        switch (p) {
          case ZeroRun: {
            const unsigned run = static_cast<unsigned>(rd.get(3)) + 1;
            cmpsim_assert(i + run <= kWordsPerLine);
            i += run; // line is zero-initialized
            break;
          }
          case Se4: {
            const auto v = static_cast<std::int64_t>(rd.get(4) << 60) >> 60;
            setLineWord(line, i++, static_cast<std::uint32_t>(v));
            break;
          }
          case Se8: {
            const auto v = static_cast<std::int64_t>(rd.get(8) << 56) >> 56;
            setLineWord(line, i++, static_cast<std::uint32_t>(v));
            break;
          }
          case Se16: {
            const auto v = static_cast<std::int64_t>(rd.get(16) << 48) >> 48;
            setLineWord(line, i++, static_cast<std::uint32_t>(v));
            break;
          }
          case LowerZero: {
            const auto upper = static_cast<std::uint32_t>(rd.get(16));
            setLineWord(line, i++, upper << 16);
            break;
          }
          case TwoSeBytes: {
            const auto two = static_cast<std::uint32_t>(rd.get(16));
            const std::uint32_t lo =
                static_cast<std::uint32_t>(
                    static_cast<std::int32_t>(
                        static_cast<std::int8_t>(two & 0xffu))) &
                0xffffu;
            const std::uint32_t hi =
                static_cast<std::uint32_t>(
                    static_cast<std::int32_t>(
                        static_cast<std::int8_t>((two >> 8) & 0xffu))) &
                0xffffu;
            setLineWord(line, i++, lo | (hi << 16));
            break;
          }
          case RepeatedByte: {
            const auto b = static_cast<std::uint32_t>(rd.get(8));
            setLineWord(line, i++, b | (b << 8) | (b << 16) | (b << 24));
            break;
          }
          case Raw: {
            setLineWord(line, i++,
                        static_cast<std::uint32_t>(rd.get(32)));
            break;
          }
        }
    }
    return line;
}

} // namespace cmpsim
