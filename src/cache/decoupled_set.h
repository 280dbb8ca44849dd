/**
 * @file
 * One set of the decoupled variable-segment cache [Alameldeen & Wood,
 * ISCA 2004], the structure the paper uses for the compressed shared
 * L2 (Section 2): more address tags than uncompressed data capacity,
 * with the data space managed as a pool of 8-byte segments.
 *
 * The same structure expresses every cache in cmpsim:
 *  - compressed L2 set:   8 tags, 32-segment budget (4 uncompressed
 *    lines of data space; compression fits up to 8 lines);
 *  - uncompressed L2 set: 8 (+victim) tags, 64-segment budget, every
 *    line charged 8 segments;
 *  - L1 set:              4 (+victim) tags, 32-segment budget.
 *
 * Tags whose data has been evicted retain the line address as *victim
 * tags* in LRU-stack order; the adaptive prefetcher (Section 3) scans
 * them on misses to detect harmful prefetches.
 *
 * Storage. A DecoupledSet owns no tags: it is a view over `tags`
 * consecutive TagEntry slots of one contiguous array that the cache
 * allocates for all of its sets (set i views slots
 * [i * tags, (i + 1) * tags)). The view itself holds only the
 * pointer, the geometry and the set's segment total, so one lookup
 * walks one run of 16-byte tags with no per-set heap block.
 */

#ifndef CMPSIM_CACHE_DECOUPLED_SET_H
#define CMPSIM_CACHE_DECOUPLED_SET_H

#include <span>

#include "src/cache/tag_entry.h"
#include "src/common/inline_vector.h"
#include "src/common/log.h"

namespace cmpsim {

/** Most address tags (valid + victim) one set may hold; bounds the
 *  victims one insert() or resize() can return. The largest set in
 *  any configuration is the adaptive uncompressed L2's 8 + 4. */
inline constexpr unsigned kMaxSetTags = 16;

/**
 * A checked handle to one line's valid tag in a set: what
 * DecoupledSet::find() hands out and touch() moves. The set reorders
 * its tags in place, so every access checks that the slot still
 * holds the line's valid tag. After a touch(), insert(), resize() or
 * invalidate() that moved or retired it, or for the empty handle a
 * missed find() returns, the access panics naming the line. So a
 * held handle can never edit another line's directory or compression
 * state.
 */
class TagRef
{
  public:
    /** True when find() found the line; says nothing about later
     *  moves. */
    explicit operator bool() const { return entry_ != nullptr; }

    Addr line() const { return line_; }

    TagEntry &
    operator*() const
    {
        if (entry_ == nullptr || entry_->line != line_ || !entry_->valid)
            [[unlikely]] stale(entry_ != nullptr, line_);
        return *entry_;
    }

    TagEntry *operator->() const { return &**this; }

  private:
    friend class DecoupledSet;

    TagRef(TagEntry *entry, Addr line) : entry_(entry), line_(line) {}

    [[noreturn]] static void stale(bool found, Addr line);

    TagEntry *entry_; ///< nullptr when find() missed
    Addr line_;
};

/**
 * One set: an LRU stack of tags over a shared segment pool.
 *
 * Structural invariants (audited by auditDecoupledSet() in
 * src/audit/audits.h):
 *  - valid entries form a contiguous MRU prefix of the stack; victim
 *    tags and empty tags always sit behind every valid entry;
 *  - the sum of valid entries' segment counts equals usedSegments()
 *    and never exceeds segmentBudget();
 *  - no two valid entries share a line address.
 */
class DecoupledSet
{
  public:
    /** Lines evicted by one insert() or resize(), in eviction order. */
    using Victims = InlineVector<TagEntry, kMaxSetTags>;

    /**
     * @param storage the set's @p tags slots, owned by the caller and
     *        outliving the view; they must be default (empty) tags
     * @param tags number of address tags (valid + victim), at most
     *        kMaxSetTags
     * @param segment_budget data space in 8-byte segments
     */
    DecoupledSet(TagEntry *storage, unsigned tags, unsigned segment_budget);

    /** A handle to the valid entry for @p line, empty when the line
     *  is not in the set. Does not touch LRU. */
    TagRef find(Addr line);

    /** Read-only lookup for observers (probes, tests): the valid
     *  entry for @p line or nullptr, good until the set next changes. */
    const TagEntry *find(Addr line) const;

    /** Move @p ref's entry, which must be in this set, to the MRU
     *  position. @return the handle at its new position; other
     *  handles into the set whose entries moved are stale. */
    TagRef touch(TagRef ref);

    /**
     * Insert @p entry (valid, with a segment count), evicting LRU
     * valid lines until a tag and enough segments are free.
     *
     * @return the evicted entries, in eviction order; each leaves a
     *         victim tag behind.
     * @pre no valid entry for entry.line exists in the set.
     */
    Victims insert(const TagEntry &entry);

    /**
     * Change the segment count of the valid entry for @p line (a
     * write changed its compressed size). May evict other LRU lines
     * to make room; never evicts @p line itself.
     */
    Victims resize(Addr line, unsigned segments);

    /**
     * Invalidate @p line's valid entry, leaving a victim tag.
     * @return the entry's state just before invalidation (valid=true),
     *         or an empty entry when the line was not present.
     */
    TagEntry invalidate(Addr line);

    /**
     * True when any *invalid* tag (victim tag) matches @p line — the
     * adaptive prefetcher's harmful-prefetch probe.
     */
    bool victimTagMatch(Addr line) const;

    /** True when any valid entry has its prefetch bit set. */
    bool anyValidPrefetch() const;

    /** Sum of segments over valid entries. */
    unsigned usedSegments() const;

    /** Number of valid entries. */
    unsigned validCount() const;

    /** Number of victim tags currently held. */
    unsigned victimTagCount() const;

    unsigned segmentBudget() const { return segment_budget_; }

    /** MRU-to-LRU entry view (tests, stats, compression ratio). */
    std::span<const TagEntry> entries() const { return {entries_, tags_}; }

    /**
     * Mutable entry access for audit-test fault injection ONLY:
     * bypasses all segment accounting, so any real caller corrupts
     * the set. Production code must use insert()/resize()/invalidate().
     */
    TagEntry &
    entryForTest(unsigned i)
    {
        cmpsim_assert(i < tags_);
        return entries_[i];
    }

    /** The LRU-stack depth (0 = MRU) of @p line among valid entries. */
    int validStackDepth(Addr line) const;

  private:
    /** The valid entry for @p line, or nullptr. */
    TagEntry *slotOf(Addr line);

    /** Evict the LRU-most valid entry; returns it and leaves a victim
     *  tag at the LRU end of the stack. */
    TagEntry evictLruValid();

    /**
     * Invalidate the valid entry at @p it, leaving a victim tag, and
     * move it just behind the remaining valid entries so valids stay
     * a contiguous MRU prefix (the audited stack-order invariant).
     */
    void retireTag(TagEntry *it);

    TagEntry *end() { return entries_ + tags_; }

    TagEntry *entries_; // [0] = MRU, [tags_ - 1] = LRU
    unsigned tags_;
    unsigned segment_budget_;
    unsigned used_segments_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_CACHE_DECOUPLED_SET_H
