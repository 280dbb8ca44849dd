/**
 * @file
 * Backing store for the value contents of every simulated line.
 *
 * cmpsim keeps one authoritative copy of each line's bytes (the caches
 * move metadata, not payloads) and memoizes the FPC-compressed segment
 * count per line, invalidating it on writes. This is a simulator
 * convenience, not an architectural statement: stores update values
 * immediately while the timing model still charges write-back traffic,
 * so compressed sizes always reflect current data.
 *
 * Layout. Every functionally executed data access probes the store
 * (touchLine, writeWord, fill-path reads), so lookup is one
 * open-addressing index over entries that never move:
 *  - the index is a power-of-two table of (line, entry) slots with a
 *    multiplicative hash and linear probing, doubled whenever the load
 *    would exceed 3/4;
 *  - entries (64 data bytes each, cache-line aligned, plus a one-byte
 *    segment memo) live in 512-entry chunks, appended in first-touch
 *    order and never relocated, so a LineData reference stays valid
 *    while the store grows.
 * Lines are never erased.
 */

#ifndef CMPSIM_MEM_VALUE_STORE_H
#define CMPSIM_MEM_VALUE_STORE_H

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/line_data.h"
#include "src/common/log.h"
#include "src/common/types.h"
#include "src/compression/compressor.h"

namespace cmpsim {

/** Line-value owner + compressed-size memo. */
class ValueStore
{
  public:
    /** @param compressor sizing algorithm; must outlive the store. */
    explicit ValueStore(const Compressor &compressor)
        : compressor_(compressor), slots_(kInitialSlots)
    {
    }

    /** True when @p addr's line has been given a value. */
    bool
    hasLine(Addr addr) const
    {
        return find(lineAddr(addr)) != kNoEntry;
    }

    /**
     * Read the line containing @p addr; absent lines read as zero
     * (zero-fill semantics, like untouched DRAM in the paper's
     * functional simulator).
     */
    const LineData &
    line(Addr addr) const
    {
        static const LineData zero{};
        const std::uint32_t e = find(lineAddr(addr));
        return e == kNoEntry ? zero : data(e);
    }

    /** Replace the whole line containing @p addr. */
    void
    setLine(Addr addr, const LineData &data)
    {
        if (journaling_)
            journal_.push_back({addr, data, 0, true});
        const std::uint32_t e = ensure(lineAddr(addr));
        this->data(e) = data;
        memo(e) = 0;
    }

    /** Write one 32-bit word at byte offset @p offset within the line. */
    void
    writeWord(Addr addr, std::uint32_t value)
    {
        if (journaling_) {
            journal_.push_back({addr, LineData{}, value, false});
        }
        const std::uint32_t e = ensure(lineAddr(addr));
        setLineWord(data(e), lineOffset(addr) / 4, value);
        memo(e) = 0;
    }

    /** One recorded mutation (lockstep skip sharing, DESIGN.md §14). */
    struct Op
    {
        Addr addr;
        LineData data;       ///< whole-line payload (whole_line only)
        std::uint32_t word;  ///< store value (word writes only)
        bool whole_line;
    };

    /** Start recording every setLine()/writeWord() into a journal.
     *  Replaying the journal through applyOps() reproduces this
     *  store's mutations on a lockstep twin whose workload position
     *  matches — the follower half of shared-prefix fast-forward. */
    void
    startJournal()
    {
        journal_.clear();
        journaling_ = true;
    }

    /** Stop recording and hand the journal to the caller. */
    std::vector<Op>
    takeJournal()
    {
        journaling_ = false;
        return std::move(journal_);
    }

    /** Replay a journal recorded by a lockstep twin, in order. */
    void
    applyOps(const std::vector<Op> &ops)
    {
        cmpsim_assert(!journaling_);
        for (const Op &op : ops) {
            if (op.whole_line)
                setLine(op.addr, op.data);
            else
                writeWord(op.addr, op.word);
        }
    }

    /**
     * Compressed size, in 8-byte segments, of the line containing
     * @p addr under the store's compressor. Memoized per line.
     */
    unsigned
    segments(Addr addr)
    {
        const std::uint32_t e = find(lineAddr(addr));
        if (e == kNoEntry)
            return zero_segments();
        std::uint8_t &m = memo(e);
        if (m == 0)
            m = static_cast<std::uint8_t>(
                compressor_.compressedSegments(data(e)));
        return m;
    }

    std::size_t lineCount() const { return count_; }

    const Compressor &compressor() const { return compressor_; }

    /** Index slots (a power of two; grows with lineCount()). */
    std::size_t capacity() const { return slots_.size(); }

    /** First slot probed for @p line in a table of @p capacity slots
     *  (a power of two): the top bits of a multiplicative hash. */
    static std::size_t
    homeSlot(Addr line, std::size_t capacity)
    {
        return static_cast<std::size_t>((lineNumber(line) * kHashMul) >>
                                        (64 - std::countr_zero(capacity)));
    }

  private:
    /** One index slot: a line and its entry number. */
    struct Slot
    {
        Addr line = kNoLine;
        std::uint32_t entry = 0;
    };

    static constexpr unsigned kChunkShift = 9;
    static constexpr std::uint32_t kChunkEntries = 1u << kChunkShift;

    /** kChunkEntries lines; memo 0 = segment count not computed. */
    struct Chunk
    {
        alignas(64) LineData data[kChunkEntries];
        std::uint8_t memo[kChunkEntries];
    };

    static constexpr std::size_t kInitialSlots = 1024;
    static constexpr std::uint64_t kHashMul = 0x9e3779b97f4a7c15ull;
    static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};
    /** Line addresses are 64-byte aligned, so all-ones never occurs. */
    static constexpr Addr kNoLine = ~static_cast<Addr>(0);

    LineData &
    data(std::uint32_t e)
    {
        return chunks_[e >> kChunkShift]->data[e & (kChunkEntries - 1)];
    }

    const LineData &
    data(std::uint32_t e) const
    {
        return chunks_[e >> kChunkShift]->data[e & (kChunkEntries - 1)];
    }

    std::uint8_t &
    memo(std::uint32_t e)
    {
        return chunks_[e >> kChunkShift]->memo[e & (kChunkEntries - 1)];
    }

    unsigned
    zero_segments()
    {
        if (zero_segments_ == 0)
            zero_segments_ = compressor_.compressedSegments(LineData{});
        return zero_segments_;
    }

    /** Entry number of @p line, or kNoEntry. */
    std::uint32_t
    find(Addr line) const
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = homeSlot(line, slots_.size());;
             i = (i + 1) & mask) {
            const Slot &s = slots_[i];
            if (s.line == line)
                return s.entry;
            if (s.line == kNoLine)
                return kNoEntry;
        }
    }

    /** The empty slot an absent @p line probes to. */
    Slot &
    vacancyFor(Addr line)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = homeSlot(line, slots_.size());
        while (slots_[i].line != kNoLine)
            i = (i + 1) & mask;
        return slots_[i];
    }

    /** Find-or-insert @p line (a fresh line reads as zero). */
    std::uint32_t
    ensure(Addr line)
    {
        const std::uint32_t found = find(line);
        if (found != kNoEntry)
            return found;
        if ((count_ + 1) * 4 > slots_.size() * 3) {
            // Double the index and re-place every slot.
            std::vector<Slot> old(slots_.size() * 2);
            old.swap(slots_);
            for (const Slot &s : old) {
                if (s.line != kNoLine)
                    vacancyFor(s.line) = s;
            }
        }
        if (count_ == chunks_.size() * kChunkEntries)
            chunks_.push_back(std::make_unique<Chunk>());
        Slot &s = vacancyFor(line);
        s.line = line;
        s.entry = static_cast<std::uint32_t>(count_++);
        return s.entry;
    }

    const Compressor &compressor_;
    std::vector<Slot> slots_;     ///< open-addressing index
    std::vector<std::unique_ptr<Chunk>> chunks_; ///< entry storage
    std::size_t count_ = 0;       ///< entries in use
    bool journaling_ = false;
    std::vector<Op> journal_;
    unsigned zero_segments_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_MEM_VALUE_STORE_H
