#include "src/cache/decoupled_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/audit/audits.h"
#include "src/common/random.h"

namespace cmpsim {
namespace {

TagEntry
makeEntry(Addr line, unsigned segments = kSegmentsPerLine)
{
    TagEntry e;
    e.line = line;
    e.valid = true;
    e.segments = static_cast<std::uint8_t>(segments);
    return e;
}

TEST(DecoupledSetTest, InsertAndFind)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    EXPECT_TRUE(set.insert(makeEntry(0x100)).empty());
    EXPECT_NE(set.find(0x100), nullptr);
    EXPECT_EQ(set.find(0x200), nullptr);
    EXPECT_EQ(set.validCount(), 1u);
    EXPECT_EQ(set.usedSegments(), 8u);
}

TEST(DecoupledSetTest, UncompressedCapacityIsFourLines)
{
    // The paper's compressed-L2 geometry: 8 tags, 32 segments.
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    for (Addr a = 0; a < 4; ++a)
        EXPECT_TRUE(set.insert(makeEntry(a << kLineShift)).empty());
    // Fifth uncompressed line evicts the LRU (line 0).
    const auto evicted = set.insert(makeEntry(4 << kLineShift));
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].line, 0u);
    EXPECT_EQ(set.validCount(), 4u);
}

TEST(DecoupledSetTest, CompressedLinesDoubleCapacity)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    // Eight 4-segment lines fit exactly: capacity doubled.
    for (Addr a = 0; a < 8; ++a)
        EXPECT_TRUE(set.insert(makeEntry(a << kLineShift, 4)).empty());
    EXPECT_EQ(set.validCount(), 8u);
    EXPECT_EQ(set.usedSegments(), 32u);
    // A ninth line must evict even though segments would be free after
    // eviction: tags are exhausted.
    const auto evicted = set.insert(makeEntry(8 << kLineShift, 1));
    EXPECT_EQ(evicted.size(), 1u);
}

TEST(DecoupledSetTest, LruOrderRespectsTouch)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    for (Addr a = 0; a < 4; ++a)
        set.insert(makeEntry(a << kLineShift));
    set.touch(set.find(0)); // line 0 becomes MRU; line 1 now LRU
    const auto evicted = set.insert(makeEntry(100 << kLineShift));
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].line, 1u << kLineShift);
}

TEST(DecoupledSetTest, EvictionLeavesVictimTag)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    for (Addr a = 0; a < 5; ++a)
        set.insert(makeEntry(a << kLineShift));
    // Line 0 was evicted; its address remains as a victim tag.
    EXPECT_TRUE(set.victimTagMatch(0));
    EXPECT_FALSE(set.victimTagMatch(3 << kLineShift));
    EXPECT_GE(set.victimTagCount(), 1u);
}

TEST(DecoupledSetTest, MultipleEvictionsForOneBigInsert)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    // Fill with eight 4-segment lines, then insert an 8-segment line:
    // needs two evictions for segments.
    for (Addr a = 0; a < 8; ++a)
        set.insert(makeEntry(a << kLineShift, 4));
    const auto evicted = set.insert(makeEntry(0x9000, 8));
    EXPECT_EQ(evicted.size(), 2u);
    EXPECT_EQ(set.usedSegments(), 6u * 4 + 8);
}

TEST(DecoupledSetTest, SegmentAccountingInvariant)
{
    Random rng(7);
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    for (int i = 0; i < 2000; ++i) {
        const Addr line = rng.below(64) << kLineShift;
        if (TagEntry *hit = set.find(line)) {
            if (rng.chance(0.3))
                set.resize(line, static_cast<unsigned>(rng.inRange(1, 8)));
            else if (rng.chance(0.1))
                set.invalidate(line);
            else
                set.touch(hit);
        } else {
            set.insert(
                makeEntry(line, static_cast<unsigned>(rng.inRange(1, 8))));
        }
        // Invariants: budget respected, accounting exact.
        unsigned sum = 0, valid = 0;
        for (const auto &e : set.entries()) {
            if (e.valid) {
                sum += e.segments;
                ++valid;
            }
        }
        ASSERT_EQ(sum, set.usedSegments());
        ASSERT_EQ(valid, set.validCount());
        ASSERT_LE(sum, 32u);
        ASSERT_LE(valid, 8u);
    }
}

TEST(DecoupledSetTest, ResizeShrinkFreesSegments)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    set.insert(makeEntry(0x100, 8));
    EXPECT_TRUE(set.resize(0x100, 2).empty());
    EXPECT_EQ(set.usedSegments(), 2u);
    EXPECT_EQ(set.find(0x100)->segments, 2u);
}

TEST(DecoupledSetTest, ResizeGrowEvictsOthersNotSelf)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    for (Addr a = 0; a < 8; ++a)
        set.insert(makeEntry(a << kLineShift, 4));
    // Grow the MRU line (7): needs 4 more segments -> evict LRU (0).
    set.touch(set.find(7 << kLineShift));
    const auto evicted = set.resize(7 << kLineShift, 8);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].line, 0u);
    EXPECT_NE(set.find(7 << kLineShift), nullptr);
}

TEST(DecoupledSetTest, ResizeGrowLruLineDoesNotEvictSelf)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    for (Addr a = 0; a < 8; ++a)
        set.insert(makeEntry(a << kLineShift, 4));
    // Line 0 is LRU; growing it must evict other lines.
    const auto evicted = set.resize(0, 8);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_NE(evicted[0].line, 0u);
    EXPECT_NE(set.find(0), nullptr);
    EXPECT_EQ(set.find(0)->segments, 8u);
}

TEST(DecoupledSetTest, InvalidateKeepsVictimTag)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    auto e = makeEntry(0x340, 4);
    e.dirty = true;
    set.insert(e);
    const TagEntry prior = set.invalidate(0x340);
    EXPECT_TRUE(prior.valid);
    EXPECT_TRUE(prior.dirty);
    EXPECT_EQ(set.find(0x340), nullptr);
    EXPECT_TRUE(set.victimTagMatch(0x340));
    EXPECT_EQ(set.usedSegments(), 0u);
}

TEST(DecoupledSetTest, InvalidateAbsentLineReturnsEmpty)
{
    std::vector<TagEntry> set_tags(4);
    DecoupledSet set(set_tags.data(), 4, 32);
    EXPECT_FALSE(set.invalidate(0x123000).valid);
}

TEST(DecoupledSetTest, AnyValidPrefetchTracksBits)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    set.insert(makeEntry(0x100));
    EXPECT_FALSE(set.anyValidPrefetch());
    auto e = makeEntry(0x200);
    e.prefetch = true;
    set.insert(e);
    EXPECT_TRUE(set.anyValidPrefetch());
    set.invalidate(0x200);
    EXPECT_FALSE(set.anyValidPrefetch());
}

TEST(DecoupledSetTest, ExtraVictimTagsSurviveFullValidSet)
{
    // 12 tags but only 8 lines of data: 4 permanent victim-tag slots,
    // the paper's uncompressed-adaptive configuration.
    std::vector<TagEntry> set_tags(12);
    DecoupledSet set(set_tags.data(), 12, 64);
    for (Addr a = 0; a < 8; ++a)
        set.insert(makeEntry(a << kLineShift));
    // Evict 0..3 by inserting 4 more.
    for (Addr a = 8; a < 12; ++a)
        set.insert(makeEntry(a << kLineShift));
    for (Addr a = 0; a < 4; ++a)
        EXPECT_TRUE(set.victimTagMatch(a << kLineShift));
}

TEST(DecoupledSetTest, FindTouchReFindReturnsFreshPointer)
{
    // The invalidation hazard the analyzer guards against: touch()
    // rotates the set's entries, so a pointer from before the touch
    // dangles. touch() returns the moved entry, which must carry the
    // same state at MRU position and be what find() now returns.
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    auto e = makeEntry(0x100, 4);
    e.dirty = true;
    set.insert(e);
    set.insert(makeEntry(0x200, 4));
    set.insert(makeEntry(0x300, 4));

    TagEntry *before = set.find(0x100);
    ASSERT_NE(before, nullptr);
    EXPECT_EQ(set.validStackDepth(0x100), 2);

    TagEntry *after = set.touch(before);
    ASSERT_EQ(after, set.find(0x100));
    EXPECT_EQ(after, &set.entries()[0]);
    EXPECT_EQ(after->line, 0x100u);
    EXPECT_TRUE(after->dirty);
    EXPECT_EQ(after->segments, 4u);
    EXPECT_EQ(set.validStackDepth(0x100), 0);

    // Mutations through the returned pointer must land on the entry
    // find() keeps returning.
    after->prefetch = true;
    EXPECT_TRUE(set.find(0x100)->prefetch);
    EXPECT_EQ(set.usedSegments(), 12u);
}

TEST(DecoupledSetTest, InvalidateKeepsValidEntriesInMruPrefix)
{
    // Invalidating a mid-stack line must not strand valid entries
    // behind the new victim tag (the audited valid-prefix invariant).
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 32);
    for (Addr a = 1; a <= 4; ++a)
        set.insert(makeEntry(a << kLineShift, 4));
    set.invalidate(2 << kLineShift); // mid-stack

    bool seen_invalid = false;
    for (const auto &e : set.entries()) {
        if (!e.valid)
            seen_invalid = true;
        else
            EXPECT_FALSE(seen_invalid)
                << "valid line behind a victim tag";
    }
    // Relative LRU order of survivors is preserved: 4 MRU ... 1 LRU.
    EXPECT_EQ(set.validStackDepth(4 << kLineShift), 0);
    EXPECT_EQ(set.validStackDepth(3 << kLineShift), 1);
    EXPECT_EQ(set.validStackDepth(1 << kLineShift), 2);
    // The victim tag still matches.
    EXPECT_TRUE(set.victimTagMatch(2 << kLineShift));
}

TEST(DecoupledSetTest, ValidStackDepth)
{
    std::vector<TagEntry> set_tags(8);
    DecoupledSet set(set_tags.data(), 8, 64);
    set.insert(makeEntry(0x100));
    set.insert(makeEntry(0x200));
    set.insert(makeEntry(0x300));
    EXPECT_EQ(set.validStackDepth(0x300), 0);
    EXPECT_EQ(set.validStackDepth(0x200), 1);
    EXPECT_EQ(set.validStackDepth(0x100), 2);
    EXPECT_EQ(set.validStackDepth(0x999), -1);
}

/**
 * Reference model for the LRU moves: the set's algorithm as it stood
 * with std::rotate for every move (touch() to MRU, insert() into the
 * backmost invalid slot, a retired tag to just behind the valid
 * prefix). DecoupledSet must leave its tags byte-identical to it.
 */
class RotateReferenceSet
{
  public:
    explicit RotateReferenceSet(std::vector<TagEntry> &tags,
                                unsigned segment_budget)
        : tags_(tags), segment_budget_(segment_budget)
    {
    }

    TagEntry *
    find(Addr line)
    {
        for (TagEntry &e : tags_) {
            if (e.line == line && e.valid)
                return &e;
        }
        return nullptr;
    }

    void
    touch(TagEntry *entry)
    {
        std::rotate(tags_.data(), entry, entry + 1);
    }

    DecoupledSet::Victims
    insert(const TagEntry &entry)
    {
        DecoupledSet::Victims evicted;
        while (used_segments_ + entry.segments > segment_budget_)
            evicted.push_back(evictLruValid());
        auto backmostInvalid = [this]() -> TagEntry * {
            for (TagEntry *it = end(); it-- != tags_.data();) {
                if (!it->valid)
                    return it;
            }
            return nullptr;
        };
        TagEntry *slot = backmostInvalid();
        if (slot == nullptr) {
            evicted.push_back(evictLruValid());
            slot = backmostInvalid();
        }
        std::rotate(tags_.data(), slot, slot + 1);
        tags_[0] = entry;
        used_segments_ += entry.segments;
        return evicted;
    }

    DecoupledSet::Victims
    resize(Addr line, unsigned segments)
    {
        TagEntry *e = find(line);
        DecoupledSet::Victims evicted;
        if (segments <= e->segments) {
            used_segments_ -= e->segments - segments;
            e->segments = static_cast<std::uint8_t>(segments);
            return evicted;
        }
        const unsigned grow = segments - e->segments;
        while (used_segments_ + grow > segment_budget_) {
            for (TagEntry *it = end(); it-- != tags_.data();) {
                if (it->valid && it->line != line) {
                    TagEntry victim = *it;
                    retireTag(it);
                    evicted.push_back(victim);
                    break;
                }
            }
            e = find(line);
        }
        used_segments_ += grow;
        e->segments = static_cast<std::uint8_t>(segments);
        return evicted;
    }

    TagEntry
    invalidate(Addr line)
    {
        TagEntry *it = find(line);
        if (it == nullptr)
            return TagEntry{};
        TagEntry prior = *it;
        retireTag(it);
        return prior;
    }

    unsigned usedSegments() const { return used_segments_; }

  private:
    TagEntry *end() { return tags_.data() + tags_.size(); }

    void
    retireTag(TagEntry *it)
    {
        used_segments_ -= it->segments;
        it->valid = false;
        it->dirty = false;
        it->prefetch = false;
        it->pf_source = PfSource::None;
        it->was_compressed = false;
        it->segments = kSegmentsPerLine;
        it->sharers = 0;
        it->owner = kNoOwner;
        TagEntry *end_valid = it + 1;
        while (end_valid != end() && end_valid->valid)
            ++end_valid;
        std::rotate(it, it + 1, end_valid);
    }

    TagEntry
    evictLruValid()
    {
        for (TagEntry *it = end(); it-- != tags_.data();) {
            if (it->valid) {
                TagEntry victim = *it;
                retireTag(it);
                return victim;
            }
        }
        return TagEntry{};
    }

    std::vector<TagEntry> &tags_;
    unsigned segment_budget_;
    unsigned used_segments_ = 0;
};

bool
sameBytes(const TagEntry *a, const TagEntry *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(TagEntry)) == 0;
}

TEST(DecoupledSetTest, LruMovesMatchRotateReferenceByteForByte)
{
    // The paper's set geometries: compressed L2 (8 tags, 32 segments),
    // uncompressed L2 with victim tags (12 tags, 64 segments) and an
    // L1 with victim tags (8 tags, 32 segments, full charge).
    struct Geometry
    {
        unsigned tags;
        unsigned budget;
        bool full_charge;
    };
    const Geometry geometries[] = {{8, 32, false}, {12, 64, true},
                                   {8, 32, true}, {16, 40, false}};
    unsigned moves = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (const Geometry &g : geometries) {
            std::vector<TagEntry> tags(g.tags);
            std::vector<TagEntry> ref_tags(g.tags);
            DecoupledSet set(tags.data(), g.tags, g.budget);
            RotateReferenceSet ref(ref_tags, g.budget);
            Random rng(seed * 31 + g.tags);
            for (unsigned step = 0; step < 4000; ++step) {
                const Addr line = rng.below(3 * g.tags) << kLineShift;
                const auto segs =
                    g.full_charge ? kSegmentsPerLine
                                  : static_cast<unsigned>(rng.inRange(1, 8));
                TagEntry *hit = set.find(line);
                ASSERT_EQ(hit == nullptr, ref.find(line) == nullptr);
                DecoupledSet::Victims got;
                DecoupledSet::Victims want;
                if (hit == nullptr) {
                    // Every byte of the entry is set, the flag byte's
                    // unused bits too, so the comparison below sees
                    // only the moves.
                    TagEntry e;
                    std::memset(static_cast<void *>(&e), 0, sizeof e);
                    e.line = line;
                    e.valid = true;
                    e.segments = static_cast<std::uint8_t>(segs);
                    e.dirty = rng.chance(0.5);
                    e.prefetch = rng.chance(0.3);
                    e.sharers = static_cast<std::uint32_t>(rng.below(16));
                    got = set.insert(e);
                    want = ref.insert(e);
                } else {
                    switch (rng.below(4)) {
                      case 0:
                      case 1:
                        set.touch(hit);
                        ref.touch(ref.find(line));
                        ++moves;
                        break;
                      case 2:
                        if (!g.full_charge) {
                            got = set.resize(line, segs);
                            want = ref.resize(line, segs);
                        }
                        break;
                      default: {
                        const TagEntry a = set.invalidate(line);
                        const TagEntry b = ref.invalidate(line);
                        ASSERT_TRUE(sameBytes(&a, &b, 1)) << step;
                        break;
                      }
                    }
                }
                ASSERT_EQ(got.size(), want.size()) << step;
                ASSERT_TRUE(sameBytes(got.begin(), want.begin(), got.size()))
                    << "victims differ at step " << step;
                ASSERT_TRUE(sameBytes(tags.data(), ref_tags.data(), g.tags))
                    << "tags differ at step " << step << ", seed " << seed
                    << ", " << g.tags << " tags";
                ASSERT_EQ(set.usedSegments(), ref.usedSegments());
            }
        }
    }
    EXPECT_GT(moves, 5000u);
}

bool
sameTag(const TagEntry &a, const TagEntry &b)
{
    return a.line == b.line && a.valid == b.valid && a.dirty == b.dirty &&
           a.prefetch == b.prefetch && a.pf_source == b.pf_source &&
           a.was_compressed == b.was_compressed &&
           a.segments == b.segments && a.sharers == b.sharers &&
           a.owner == b.owner;
}

TEST(DecoupledSetTest, AdjacentViewsNeverTouchEachOthersTags)
{
    // Three sets over one array, laid out as a cache lays them out.
    // Churn the middle one through every mutating operation; its
    // neighbours' tags must stay exactly as they were.
    constexpr unsigned kTags = 4;
    std::vector<TagEntry> tags(3 * kTags);
    DecoupledSet left(&tags[0], kTags, 32);
    DecoupledSet mid(&tags[kTags], kTags, 32);
    DecoupledSet right(&tags[2 * kTags], kTags, 32);
    left.insert(makeEntry(0x1000, 8));
    left.insert(makeEntry(0x1040, 5));
    left.invalidate(0x1000); // a victim tag at the boundary
    right.insert(makeEntry(0x9000, 3));
    right.insert(makeEntry(0x9040, 8));
    const std::vector<TagEntry> left0(left.entries().begin(),
                                      left.entries().end());
    const std::vector<TagEntry> right0(right.entries().begin(),
                                       right.entries().end());

    Random rng(21);
    for (unsigned i = 0; i < 5000; ++i) {
        const Addr line = 0x5000 + rng.below(12) * kLineBytes;
        const auto segs = static_cast<unsigned>(rng.inRange(1, 8));
        TagEntry *hit = mid.find(line);
        if (hit == nullptr) {
            mid.insert(makeEntry(line, segs));
        } else {
            switch (rng.below(3)) {
              case 0:
                EXPECT_EQ(mid.touch(hit), &mid.entries()[0]);
                EXPECT_EQ(mid.entries()[0].line, line);
                break;
              case 1:
                mid.resize(line, segs);
                break;
              default:
                mid.invalidate(line);
                break;
            }
        }
        std::string why;
        ASSERT_TRUE(auditDecoupledSet(mid, false, why)) << why;
        for (unsigned t = 0; t < kTags; ++t) {
            ASSERT_TRUE(sameTag(left.entries()[t], left0[t])) << i;
            ASSERT_TRUE(sameTag(right.entries()[t], right0[t])) << i;
        }
    }
    EXPECT_EQ(left.usedSegments(), 5u);
    EXPECT_EQ(right.usedSegments(), 11u);
}

} // namespace
} // namespace cmpsim
