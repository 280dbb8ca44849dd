#include "src/compression/fpc.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/random.h"

namespace cmpsim {
namespace {

LineData
lineOfWords(std::uint32_t w)
{
    LineData d{};
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        setLineWord(d, i, w);
    return d;
}

/** A line drawn from a word mixture that hits every FPC pattern. */
LineData
patternMixLine(Random &rng)
{
    LineData d{};
    for (unsigned i = 0; i < kWordsPerLine; ++i) {
        switch (rng.below(8)) {
          case 0:
            setLineWord(d, i, 0);
            break;
          case 1:
            setLineWord(d, i,
                        static_cast<std::uint32_t>(rng.inRange(0, 15)) - 8);
            break;
          case 2:
            setLineWord(d, i, static_cast<std::uint32_t>(
                                  static_cast<std::int32_t>(
                                      rng.inRange(0, 255)) -
                                  128));
            break;
          case 3:
            setLineWord(d, i, static_cast<std::uint32_t>(
                                  static_cast<std::int32_t>(
                                      rng.inRange(0, 65535)) -
                                  32768));
            break;
          case 4:
            setLineWord(d, i, static_cast<std::uint32_t>(rng.next()) << 16);
            break;
          case 5: {
            const auto b = static_cast<std::uint32_t>(rng.below(256));
            setLineWord(d, i, b * 0x01010101u);
            break;
          }
          default:
            setLineWord(d, i, static_cast<std::uint32_t>(rng.next()));
            break;
        }
    }
    return d;
}

class FpcTest : public ::testing::Test
{
  protected:
    FpcCompressor fpc;

    void
    expectRoundTrip(const LineData &line)
    {
        BitStream bs;
        const auto size = fpc.compress(line, &bs);
        const LineData back = fpc.decompress(bs, size);
        ASSERT_EQ(back, line);
    }
};

TEST_F(FpcTest, ClassifyPatterns)
{
    using P = FpcCompressor::Pattern;
    EXPECT_EQ(FpcCompressor::classify(0), P::ZeroRun);
    EXPECT_EQ(FpcCompressor::classify(7), P::Se4);
    EXPECT_EQ(FpcCompressor::classify(0xfffffff9u), P::Se4); // -7
    EXPECT_EQ(FpcCompressor::classify(100), P::Se8);
    EXPECT_EQ(FpcCompressor::classify(0xffffff80u), P::Se8); // -128
    EXPECT_EQ(FpcCompressor::classify(30000), P::Se16);
    EXPECT_EQ(FpcCompressor::classify(0xffff8000u), P::Se16);
    EXPECT_EQ(FpcCompressor::classify(0x12340000u), P::LowerZero);
    EXPECT_EQ(FpcCompressor::classify(0x00660077u), P::TwoSeBytes);
    EXPECT_EQ(FpcCompressor::classify(0xff85ff93u), P::TwoSeBytes);
    EXPECT_EQ(FpcCompressor::classify(0xabababab), P::RepeatedByte);
    EXPECT_EQ(FpcCompressor::classify(0x12345678u), P::Raw);
}

TEST_F(FpcTest, ClassifyPrefersNarrowestPattern)
{
    using P = FpcCompressor::Pattern;
    // 0x11111111 is both repeated-byte and two-SE-byte halfwords?
    // halfwords 0x1111: not SE-byte. Repeated byte wins.
    EXPECT_EQ(FpcCompressor::classify(0x11111111u), P::RepeatedByte);
    // 3 is Se4, even though it is also Se8/Se16.
    EXPECT_EQ(FpcCompressor::classify(3), P::Se4);
}

TEST_F(FpcTest, AllZeroLineIsOneSegment)
{
    const auto size = fpc.compress(zeroLine());
    // 16 zero words -> two runs of 8 -> 2*(3+3) = 12 bits -> 1 segment.
    EXPECT_EQ(size.bits, 12u);
    EXPECT_EQ(size.segments, 1u);
    EXPECT_TRUE(size.isCompressed());
}

TEST_F(FpcTest, ZeroRunCappedAtEight)
{
    LineData d{};
    setLineWord(d, 8, 0x12345678u); // splits zeros into 8 + (7 after)
    const auto size = fpc.compress(d);
    // run(8) + raw + run(7): 6 + 35 + 6 = 47 bits.
    EXPECT_EQ(size.bits, 47u);
    EXPECT_EQ(size.segments, 1u);
    expectRoundTrip(d);
}

TEST_F(FpcTest, SmallIntLineCompressesHard)
{
    const auto size = fpc.compress(lineOfWords(5));
    // 16 * (3+4) = 112 bits -> 2 segments.
    EXPECT_EQ(size.bits, 112u);
    EXPECT_EQ(size.segments, 2u);
}

TEST_F(FpcTest, RandomDataStaysUncompressed)
{
    Random rng(99);
    LineData d{};
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        setLineWord(d, i, 0x80000000u |
                              static_cast<std::uint32_t>(rng.next()));
    const auto size = fpc.compress(d);
    EXPECT_EQ(size.segments, kSegmentsPerLine);
    EXPECT_FALSE(size.isCompressed());
    expectRoundTrip(d);
}

TEST_F(FpcTest, SegmentsNeverExceedLine)
{
    // A line that is exactly incompressible: 16 raw words = 16*35 =
    // 560 bits > 512, must fall back to raw (8 segments, 512 bits).
    LineData d{};
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        setLineWord(d, i, 0x89abcdefu + i * 0x01010101u);
    const auto size = fpc.compress(d);
    EXPECT_EQ(size.segments, kSegmentsPerLine);
    EXPECT_EQ(size.bits, kLineBytes * 8);
    expectRoundTrip(d);
}

TEST_F(FpcTest, RoundTripEachSinglePattern)
{
    expectRoundTrip(zeroLine());
    expectRoundTrip(lineOfWords(7));           // Se4
    expectRoundTrip(lineOfWords(0xffffff9cu)); // Se8 (-100)
    expectRoundTrip(lineOfWords(12345));       // Se16
    expectRoundTrip(lineOfWords(0xbeef0000u)); // LowerZero
    expectRoundTrip(lineOfWords(0x00140037u)); // TwoSeBytes
    expectRoundTrip(lineOfWords(0x77777777u)); // RepeatedByte
}

TEST_F(FpcTest, RoundTripMixedLine)
{
    LineData d{};
    setLineWord(d, 0, 0);
    setLineWord(d, 1, 42);
    setLineWord(d, 2, 0xdead0000u);
    setLineWord(d, 3, 0x12345678u);
    setLineWord(d, 4, 0xcccccccc);
    setLineWord(d, 5, 0xfffffff0u);
    for (unsigned i = 6; i < kWordsPerLine; ++i)
        setLineWord(d, i, i);
    expectRoundTrip(d);
}

TEST_F(FpcTest, CompressIsDeterministic)
{
    const LineData d = lineOfWords(0x00010002u);
    const auto a = fpc.compress(d);
    const auto b = fpc.compress(d);
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_EQ(a.segments, b.segments);
}

TEST_F(FpcTest, SizingWithoutStreamMatchesEmittingPath)
{
    // compress(line) skips building the bit stream; its size must be
    // the one compress(line, &bs) reports.
    std::vector<LineData> corpus = {
        zeroLine(),
        lineOfWords(5),
        lineOfWords(7),
        lineOfWords(0xffffff9cu),
        lineOfWords(12345),
        lineOfWords(0xbeef0000u),
        lineOfWords(0x00140037u),
        lineOfWords(0x77777777u),
        lineOfWords(0x00010002u),
    };
    LineData split{};
    setLineWord(split, 8, 0x12345678u);
    corpus.push_back(split);
    LineData incompressible{};
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        setLineWord(incompressible, i, 0x89abcdefu + i * 0x01010101u);
    corpus.push_back(incompressible);
    Random rng(17);
    for (int i = 0; i < 500; ++i)
        corpus.push_back(patternMixLine(rng));
    for (int i = 0; i < 100; ++i) {
        LineData raw{};
        for (unsigned w = 0; w < kWordsPerLine; ++w)
            setLineWord(raw, w, static_cast<std::uint32_t>(rng.next()));
        corpus.push_back(raw);
    }

    for (std::size_t i = 0; i < corpus.size(); ++i) {
        BitStream bs;
        const auto sized = fpc.compress(corpus[i]);
        const auto emitted = fpc.compress(corpus[i], &bs);
        ASSERT_EQ(sized.bits, emitted.bits) << "line " << i;
        ASSERT_EQ(sized.segments, emitted.segments) << "line " << i;
    }
}

TEST_F(FpcTest, DataBitsMatchSpec)
{
    using P = FpcCompressor::Pattern;
    EXPECT_EQ(FpcCompressor::dataBits(P::ZeroRun), 3u);
    EXPECT_EQ(FpcCompressor::dataBits(P::Se4), 4u);
    EXPECT_EQ(FpcCompressor::dataBits(P::Se8), 8u);
    EXPECT_EQ(FpcCompressor::dataBits(P::Se16), 16u);
    EXPECT_EQ(FpcCompressor::dataBits(P::LowerZero), 16u);
    EXPECT_EQ(FpcCompressor::dataBits(P::TwoSeBytes), 16u);
    EXPECT_EQ(FpcCompressor::dataBits(P::RepeatedByte), 8u);
    EXPECT_EQ(FpcCompressor::dataBits(P::Raw), 32u);
}

/** Property test: lossless round-trip over random pattern mixes. */
class FpcPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FpcPropertyTest, RandomizedRoundTripAndSizeBound)
{
    Random rng(GetParam());
    FpcCompressor fpc;
    for (int trial = 0; trial < 400; ++trial) {
        const LineData d = patternMixLine(rng);
        BitStream bs;
        const auto size = fpc.compress(d, &bs);
        ASSERT_GE(size.segments, 1u);
        ASSERT_LE(size.segments, kSegmentsPerLine);
        if (size.isCompressed()) {
            ASSERT_LE(size.bits, size.segments * kSegmentBytes * 8);
            ASSERT_EQ(bs.sizeBits(), size.bits);
        }
        const LineData back = fpc.decompress(bs, size);
        ASSERT_EQ(back, d);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FpcPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

} // namespace
} // namespace cmpsim
