#include "src/mem/value_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/compression/fpc.h"

namespace cmpsim {
namespace {

class ValueStoreTest : public ::testing::Test
{
  protected:
    FpcCompressor fpc;
    ValueStore store{fpc};
};

TEST_F(ValueStoreTest, UntouchedLinesReadZero)
{
    EXPECT_FALSE(store.hasLine(0x1000));
    EXPECT_EQ(store.line(0x1000), zeroLine());
    // Zero lines compress to one segment under FPC.
    EXPECT_EQ(store.segments(0x1000), 1u);
}

TEST_F(ValueStoreTest, SetLineRoundTrip)
{
    LineData d{};
    setLineWord(d, 3, 0xdeadbeef);
    store.setLine(0x2040, d);
    EXPECT_TRUE(store.hasLine(0x2040));
    EXPECT_EQ(store.line(0x2047), d); // any addr within the line
    EXPECT_EQ(lineWord(store.line(0x2040), 3), 0xdeadbeefu);
}

TEST_F(ValueStoreTest, WriteWordUpdatesLineAndSize)
{
    // All-zero line: 1 segment. Make every word raw: size grows.
    EXPECT_EQ(store.segments(0x3000), 1u);
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        store.writeWord(0x3000 + i * 4, 0x89abcdefu + i * 1097);
    EXPECT_EQ(store.segments(0x3000), kSegmentsPerLine);
}

TEST_F(ValueStoreTest, SegmentsMemoInvalidatedOnWrite)
{
    store.writeWord(0x4000, 5); // Se4 word + 15 zeros: tiny
    const unsigned small = store.segments(0x4000);
    EXPECT_EQ(small, 1u);
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        store.writeWord(0x4000 + i * 4, 0xf0e1d2c3u ^ (i * 0x9e3779b9u));
    EXPECT_GT(store.segments(0x4000), small);
}

TEST_F(ValueStoreTest, LinesAreIndependent)
{
    store.writeWord(0x5000, 1);
    store.writeWord(0x5040, 2);
    EXPECT_EQ(lineWord(store.line(0x5000), 0), 1u);
    EXPECT_EQ(lineWord(store.line(0x5040), 0), 2u);
    EXPECT_EQ(store.lineCount(), 2u);
}

TEST_F(ValueStoreTest, SegmentsMatchCompressorDirectly)
{
    LineData d{};
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        setLineWord(d, i, i % 2 ? 100u : 0u);
    store.setLine(0x6000, d);
    EXPECT_EQ(store.segments(0x6000), fpc.compress(d).segments);
}

/** The first @p n lines (ascending) whose home slot in a table of
 *  @p capacity slots is @p slot. Matching slot at the largest size a
 *  test reaches also matches at every smaller one: the home slot is
 *  the hash's top bits. */
std::vector<Addr>
linesHomedAt(std::size_t slot, std::size_t capacity, unsigned n)
{
    std::vector<Addr> out;
    for (Addr line = 0; out.size() < n; line += kLineBytes) {
        if (ValueStore::homeSlot(line, capacity) == slot)
            out.push_back(line);
    }
    return out;
}

TEST_F(ValueStoreTest, GrowsThroughDoublingsWithCollisionsAndWrap)
{
    const std::size_t initial = store.capacity();
    const std::size_t final_capacity = 16 * initial;
    // Keys that collide at every table size, and keys homed at the
    // last slot at every size, whose probes wrap to slot 0.
    const std::vector<Addr> colliding =
        linesHomedAt(final_capacity / 3, final_capacity, 12);
    const std::vector<Addr> wrapping =
        linesHomedAt(final_capacity - 1, final_capacity, 12);

    std::vector<Addr> lines;
    for (std::size_t i = 0; i < colliding.size(); ++i) {
        lines.push_back(colliding[i]);
        lines.push_back(wrapping[i]);
    }
    // Filler lines far above the searched range push the load past
    // 3/4 four times over.
    const Addr filler = Addr{1} << 40;
    for (Addr i = 0; lines.size() < 4 * initial; ++i)
        lines.push_back(filler + i * 3 * kLineBytes);

    for (std::size_t i = 0; i < lines.size(); ++i) {
        store.writeWord(lines[i] + 4, static_cast<std::uint32_t>(i + 1));
        // The index doubles exactly when the load would pass 3/4.
        std::size_t want = initial;
        while ((i + 1) * 4 > want * 3)
            want *= 2;
        ASSERT_EQ(store.capacity(), want) << i;
        // Every earlier line stays reachable across each growth step.
        if ((i & (i + 1)) == 0) {
            for (std::size_t j = 0; j <= i; ++j)
                ASSERT_TRUE(store.hasLine(lines[j])) << i << " " << j;
        }
    }
    EXPECT_EQ(store.capacity(), final_capacity / 2);
    EXPECT_GE(store.capacity(), 8 * initial);
    EXPECT_EQ(store.lineCount(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lineWord(store.line(lines[i]), 1), i + 1) << i;
    // Absent neighbours of the probed clusters still read as absent.
    EXPECT_FALSE(store.hasLine(colliding.back() + kLineBytes));
    EXPECT_FALSE(store.hasLine(filler + kLineBytes));
    EXPECT_EQ(store.line(filler + kLineBytes), zeroLine());
    EXPECT_EQ(store.lineCount(), lines.size());
}

TEST_F(ValueStoreTest, LineCountCountsDistinctLinesOnly)
{
    store.writeWord(0x7000, 1);
    store.writeWord(0x7004, 2);     // same line
    store.setLine(0x7010, LineData{}); // same line, whole-line write
    EXPECT_EQ(store.lineCount(), 1u);
    EXPECT_EQ(store.segments(0x9000), 1u); // a read creates nothing
    EXPECT_EQ(store.line(0x9040), zeroLine());
    EXPECT_EQ(store.lineCount(), 1u);
    store.writeWord(0x9000, 3);
    EXPECT_EQ(store.lineCount(), 2u);
}

TEST_F(ValueStoreTest, WriteWordInvalidatesMemoAfterGrowth)
{
    const Addr probe = 0x40000;
    const std::size_t initial = store.capacity();
    store.writeWord(probe, 5);
    EXPECT_EQ(store.segments(probe), 1u); // memoized while small
    // Grow the index twice; the memo stays with its entry.
    for (Addr i = 1; store.capacity() < 4 * initial; ++i)
        store.writeWord(probe + i * kLineBytes, 1);
    EXPECT_EQ(store.segments(probe), 1u);
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        store.writeWord(probe + i * 4, 0xf0e1d2c3u ^ (i * 0x9e3779b9u));
    EXPECT_EQ(store.segments(probe),
              fpc.compress(store.line(probe)).segments);
    EXPECT_GT(store.segments(probe), 1u);
}

TEST_F(ValueStoreTest, LineReferencesSurviveGrowth)
{
    store.writeWord(0x8000, 77);
    const LineData &held = store.line(0x8000);
    for (Addr i = 1; i < 4096; ++i)
        store.writeWord(0x8000 + i * kLineBytes, 1);
    EXPECT_EQ(&held, &store.line(0x8000));
    EXPECT_EQ(lineWord(held, 0), 77u);
}

} // namespace
} // namespace cmpsim
