#include "src/cache/decoupled_set.h"

#include <algorithm>

namespace cmpsim {

DecoupledSet::DecoupledSet(TagEntry *storage, unsigned tags,
                           unsigned segment_budget)
    : entries_(storage), tags_(tags), segment_budget_(segment_budget)
{
    cmpsim_assert(storage != nullptr);
    cmpsim_assert(tags > 0);
    cmpsim_assert(segment_budget >= kSegmentsPerLine);
}

TagEntry *
DecoupledSet::find(Addr line)
{
    for (TagEntry *e = entries_; e != end(); ++e) {
        if (e->line == line && e->valid)
            return e;
    }
    return nullptr;
}

const TagEntry *
DecoupledSet::find(Addr line) const
{
    return const_cast<DecoupledSet *>(this)->find(line);
}

TagEntry *
DecoupledSet::touch(TagEntry *entry)
{
    cmpsim_assert(entry >= entries_ && entry < end() && entry->valid,
                  "touch of an entry outside this set's valid tags");
    std::rotate(entries_, entry, entry + 1);
    return entries_;
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
    // Rotate the fresh victim tag just behind the last valid entry so
    // valids remain a contiguous MRU prefix and the newest victim
    // heads the victim region (insert() reuses the backmost invalid
    // tag, so older victims are recycled first).
    TagEntry *end_valid = it + 1;
    while (end_valid != end() && end_valid->valid)
        ++end_valid;
    std::rotate(it, it + 1, end_valid);
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

std::vector<TagEntry>
DecoupledSet::insert(const TagEntry &entry)
{
    cmpsim_assert(entry.valid);
    cmpsim_assert(entry.segments >= 1 &&
                  entry.segments <= kSegmentsPerLine);
    cmpsim_assert(entry.segments <= segment_budget_);
    cmpsim_assert(find(entry.line) == nullptr);

    std::vector<TagEntry> evicted;

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

    // Move the chosen slot to the MRU position and fill it.
    std::rotate(entries_, slot, slot + 1);
    entries_[0] = entry;
    used_segments_ += entry.segments;
    return evicted;
}

std::vector<TagEntry>
DecoupledSet::resize(Addr line, unsigned segments)
{
    cmpsim_assert(segments >= 1 && segments <= kSegmentsPerLine);
    TagEntry *e = find(line);
    cmpsim_assert(e != nullptr);

    std::vector<TagEntry> evicted;
    if (segments <= e->segments) {
        used_segments_ -= e->segments - segments;
        e->segments = static_cast<std::uint8_t>(segments);
        return evicted;
    }

    const unsigned grow = segments - e->segments;
    while (used_segments_ + grow > segment_budget_) {
        // Never evict the line being resized: it can only become the
        // LRU-most valid line if it is the only valid line, in which
        // case the budget always suffices (segments <= budget).
        cmpsim_assert(validCount() > 1);
        // Temporarily skip `line` by evicting the LRU valid that is
        // not `line`.
        for (TagEntry *it = end(); it-- != entries_;) {
            if (it->valid && it->line != line) {
                TagEntry victim = *it;
                retireTag(it);
                evicted.push_back(victim);
                break;
            }
        }
        e = find(line); // retireTag reordered the stack; re-find
    }
    used_segments_ += grow;
    e->segments = static_cast<std::uint8_t>(segments);
    return evicted;
}

TagEntry
DecoupledSet::invalidate(Addr line)
{
    TagEntry *it = find(line);
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
