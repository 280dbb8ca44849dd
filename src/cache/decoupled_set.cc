#include "src/cache/decoupled_set.h"

#include <algorithm>
#include <type_traits>

namespace cmpsim {

// The LRU moves below shift a run of tags by one slot with one
// std::copy or std::copy_backward, which is a memmove only for a
// trivially copyable TagEntry. (std::rotate would not do: libstdc++
// takes its memmove path only for POD types, and TagEntry's member
// initializers make it non-POD, so it runs a swap loop.)
static_assert(std::is_trivially_copyable_v<TagEntry>);

DecoupledSet::DecoupledSet(TagEntry *storage, unsigned tags,
                           unsigned segment_budget)
    : entries_(storage), tags_(tags), segment_budget_(segment_budget)
{
    cmpsim_assert(storage != nullptr);
    cmpsim_assert(tags > 0 && tags <= kMaxSetTags,
                  "%u tags per set, limit %u", tags, kMaxSetTags);
    cmpsim_assert(segment_budget >= kSegmentsPerLine);
}

void
TagRef::stale(bool found, Addr line)
{
    cmpsim_panic("tag handle for line %#llx: %s",
                 static_cast<unsigned long long>(line),
                 found ? "its slot no longer holds the line's valid tag"
                       : "the line is not in the set");
}

TagEntry *
DecoupledSet::slotOf(Addr line)
{
    for (TagEntry *e = entries_; e != end(); ++e) {
        if (e->line == line && e->valid)
            return e;
    }
    return nullptr;
}

TagRef
DecoupledSet::find(Addr line)
{
    return {slotOf(line), line};
}

const TagEntry *
DecoupledSet::find(Addr line) const
{
    return const_cast<DecoupledSet *>(this)->slotOf(line);
}

TagRef
DecoupledSet::touch(TagRef ref)
{
    TagEntry *entry = &*ref;
    cmpsim_assert(entry >= entries_ && entry < end(),
                  "touch of an entry outside this set");
    // Most touches hit the MRU tag already, which needs no move.
    if (entry != entries_) {
        const TagEntry moved = *entry;
        std::copy_backward(entries_, entry, entry + 1);
        entries_[0] = moved;
    }
    return {entries_, ref.line_};
}

void
DecoupledSet::retireTag(TagEntry *it)
{
    used_segments_ -= it->segments;
    // Leave a victim tag: address only, all other state cleared.
    it->valid = false;
    it->dirty = false;
    it->prefetch = false;
    it->pf_source = PfSource::None;
    it->was_compressed = false;
    it->segments = kSegmentsPerLine;
    it->sharers = 0;
    it->owner = kNoOwner;
    // Move the fresh victim tag just behind the last valid entry so
    // valids remain a contiguous MRU prefix and the newest victim
    // heads the victim region (insert() reuses the backmost invalid
    // tag, so older victims are recycled first).
    TagEntry *end_valid = it + 1;
    while (end_valid != end() && end_valid->valid)
        ++end_valid;
    if (end_valid != it + 1) {
        const TagEntry moved = *it;
        std::copy(it + 1, end_valid, it);
        end_valid[-1] = moved;
    }
}

TagEntry
DecoupledSet::evictLruValid()
{
    for (TagEntry *it = end(); it-- != entries_;) {
        if (it->valid) {
            TagEntry victim = *it;
            retireTag(it);
            return victim;
        }
    }
    cmpsim_panic("eviction from a set with no valid lines");
}

DecoupledSet::Victims
DecoupledSet::insert(const TagEntry &entry)
{
    cmpsim_assert(entry.valid);
    cmpsim_assert(entry.segments >= 1 &&
                  entry.segments <= kSegmentsPerLine);
    cmpsim_assert(entry.segments <= segment_budget_);
    cmpsim_assert(slotOf(entry.line) == nullptr);

    Victims evicted;

    // Free data space.
    while (used_segments_ + entry.segments > segment_budget_)
        evicted.push_back(evictLruValid());

    // Free a tag: reuse the backmost invalid slot.
    auto backmostInvalid = [this]() -> TagEntry * {
        for (TagEntry *it = end(); it-- != entries_;) {
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
    cmpsim_assert(slot != nullptr);

    // Shift the tags in front of the chosen slot back over it and
    // fill the freed MRU position.
    std::copy_backward(entries_, slot, slot + 1);
    entries_[0] = entry;
    used_segments_ += entry.segments;
    return evicted;
}

DecoupledSet::Victims
DecoupledSet::resize(Addr line, unsigned segments)
{
    cmpsim_assert(segments >= 1 && segments <= kSegmentsPerLine);
    TagEntry *e = slotOf(line);
    cmpsim_assert(e != nullptr);

    Victims evicted;
    while (used_segments_ - e->segments + segments > segment_budget_) {
        // Evict the LRU-most valid line other than `line`; there is
        // one, since `line` alone always fits (segments <= budget).
        cmpsim_assert(validCount() > 1);
        TagEntry *it = end() - 1;
        while (!it->valid || it == e)
            --it;
        evicted.push_back(*it);
        retireTag(it);
        // retireTag moved the valid tags behind `it` one slot forward.
        if (it < e)
            --e;
    }
    used_segments_ = used_segments_ - e->segments + segments;
    e->segments = static_cast<std::uint8_t>(segments);
    return evicted;
}

TagEntry
DecoupledSet::invalidate(Addr line)
{
    TagEntry *it = slotOf(line);
    if (it == nullptr)
        return TagEntry{};
    TagEntry prior = *it;
    retireTag(it);
    return prior;
}

bool
DecoupledSet::victimTagMatch(Addr line) const
{
    for (const TagEntry &e : entries()) {
        if (e.isVictimTag() && e.line == line)
            return true;
    }
    return false;
}

bool
DecoupledSet::anyValidPrefetch() const
{
    for (const TagEntry &e : entries()) {
        if (e.valid && e.prefetch)
            return true;
    }
    return false;
}

unsigned
DecoupledSet::usedSegments() const
{
    return used_segments_;
}

unsigned
DecoupledSet::validCount() const
{
    unsigned n = 0;
    for (const TagEntry &e : entries())
        n += e.valid;
    return n;
}

unsigned
DecoupledSet::victimTagCount() const
{
    unsigned n = 0;
    for (const TagEntry &e : entries())
        n += e.isVictimTag();
    return n;
}

int
DecoupledSet::validStackDepth(Addr line) const
{
    int depth = 0;
    for (const TagEntry &e : entries()) {
        if (!e.valid)
            continue;
        if (e.line == line)
            return depth;
        ++depth;
    }
    return -1;
}

} // namespace cmpsim
