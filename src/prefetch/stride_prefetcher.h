/**
 * @file
 * Stride-based hardware prefetcher modeled on the IBM Power4/Power5
 * implementation the paper uses (Section 2, Table 1):
 *
 *  - three 32-entry filter tables: positive unit stride, negative unit
 *    stride, and non-unit stride (kFilterEntries);
 *  - a filter entry that observes 4 fixed-stride misses allocates one
 *    of 8 stream-table entries;
 *  - on allocation the stream launches a burst of startup prefetches
 *    (6 for L1 prefetchers, 25 for L2 prefetchers, "at most" under the
 *    adaptive scheme);
 *  - thereafter each use of a prefetched block advances the stream by
 *    one line, maintaining the startup depth ahead of the demand
 *    stream.
 *
 * The prefetcher sees only miss/use addresses (line granularity) —
 * exactly the information the hardware has.
 */

#ifndef CMPSIM_PREFETCH_STRIDE_PREFETCHER_H
#define CMPSIM_PREFETCH_STRIDE_PREFETCHER_H

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/inline_vector.h"
#include "src/common/ring_queue.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace cmpsim {

/** Largest startup depth a prefetcher may be built with; bounds the
 *  addresses one observeMiss() or observeUse() returns. The paper's
 *  L2 prefetchers use 25. */
inline constexpr unsigned kMaxStartupPrefetches = 32;

/** Entries in each of the three filter tables (Table 1). */
inline constexpr unsigned kFilterEntries = 32;

/** Static configuration of one prefetcher instance. */
struct PrefetcherParams
{
    /** Stream-table entries. */
    unsigned stream_entries = 8;

    /** Fixed-stride misses required to allocate a stream. */
    unsigned train_count = 4;

    /** Startup prefetches per new stream (6 for L1, 25 for L2), at
     *  most kMaxStartupPrefetches. */
    unsigned startup_prefetches = 6;

    /** Largest |stride| (in lines) the non-unit table learns. */
    int max_stride = 32;

    /**
     * Lines per OS page (0 disables). Hardware prefetchers operate on
     * physical addresses and cannot follow a stream across a page
     * boundary, so bursts and advances stop at page edges (Power4
     * behaviour). 8 KB pages = 128 lines.
     */
    std::uint64_t page_lines = 128;
};

/** One Power4-style stride prefetch engine. */
class StridePrefetcher
{
  public:
    /** Line addresses to prefetch, in issue order. */
    using Prefetches = InlineVector<Addr, kMaxStartupPrefetches>;

    explicit StridePrefetcher(const PrefetcherParams &params);

    /**
     * Observe a demand miss at line address @p line_addr.
     * @param startup_limit at most this many startup prefetches for a
     *        newly allocated stream (the adaptive counter value);
     *        0 disables stream allocation and prefetch issue.
     * @return line addresses to prefetch now.
     */
    Prefetches observeMiss(Addr line_addr, unsigned startup_limit);

    /**
     * Observe the first demand use of a prefetched block (a "prefetch
     * hit"); the owning stream advances one line.
     * @return line addresses to prefetch now.
     */
    Prefetches observeUse(Addr line_addr, unsigned startup_limit);

    const PrefetcherParams &params() const { return params_; }

    std::uint64_t streamsAllocated() const { return streams_alloc_.value(); }
    std::uint64_t prefetchesGenerated() const { return generated_.value(); }

    void registerStats(StatRegistry &reg, const std::string &prefix);

    /** Drop all learned state (filter and stream tables). */
    void clear();

    /**
     * The stream-window test behind every miss and use: true when
     * @p line lies on the stride lattice strictly past the demand
     * head @p last_demand and no further than the prefetch head
     * @p next_pf of a stream with nonzero @p stride.
     */
    static bool streamCovers(std::int64_t last_demand,
                             std::int64_t next_pf, std::int64_t stride,
                             std::int64_t line);

    /**
     * One filter table as per-field arrays, so a match is one compare
     * over the contiguous next[] array and allocation is O(1):
     *
     *  - next[i]: the line entry i expects next (its last miss plus
     *    its stride), or kInvalidNext while the entry is invalid;
     *  - stride[i], count[i]: its stride and fixed-stride misses seen;
     *  - invalid: bit i set while entry i is invalid;
     *  - the valid entries form one LRU list, mru to lru through
     *    succ[] and back through prev[], kNil at both ends.
     *
     * Audited by audit() (DESIGN.md §6).
     */
    struct FilterTable
    {
        static constexpr std::int64_t kInvalidNext =
            std::numeric_limits<std::int64_t>::min();
        static constexpr std::uint8_t kNil = 0xff;
        static constexpr std::uint32_t kAllInvalid =
            static_cast<std::uint32_t>(~0ULL >> (64 - kFilterEntries));
        static_assert(kFilterEntries <= 32, "invalid mask is 32 bits");

        std::array<std::int64_t, kFilterEntries> next;
        std::array<std::int64_t, kFilterEntries> stride{};
        std::array<std::uint32_t, kFilterEntries> count{};
        std::array<std::uint8_t, kFilterEntries> prev{};
        std::array<std::uint8_t, kFilterEntries> succ{};
        std::uint32_t invalid;
        std::uint8_t mru;
        std::uint8_t lru;

        FilterTable() { clear(); }

        /** Invalidate every entry. */
        void clear();

        /** The lowest index whose next line is @p line, or -1. */
        int match(std::int64_t line) const;

        /** Make valid entry @p i the MRU one. */
        void touch(unsigned i);

        /** Invalidate valid entry @p i. */
        void drop(unsigned i);

        /** Fill the lowest invalid entry, or else the LRU one, with a
         *  miss at @p line of stride @p entry_stride, counted
         *  @p entry_count, and make it the MRU one. */
        void alloc(std::int64_t line, std::int64_t entry_stride,
                   unsigned entry_count);

        /** Structural check: the invalid mask and the LRU list
         *  partition the entries, prev[] and succ[] agree, the list
         *  is acyclic and exactly the invalid entries hold
         *  kInvalidNext. @p why names the first violation. */
        bool audit(std::string &why) const;

      private:
        void unlink(unsigned i);
        void pushMru(unsigned i);
    };

    /** Filter tables in match order: +1, -1, then non-unit stride. */
    static constexpr unsigned kPosUnit = 0;
    static constexpr unsigned kNegUnit = 1;
    static constexpr unsigned kNonUnit = 2;

    /** FilterTable::audit() over all three tables; @p why names the
     *  failing table. */
    bool auditFilters(std::string &why) const;

    /**
     * Mutable filter-table access for audit-test fault injection
     * ONLY: any real caller corrupts the prefetcher.
     */
    FilterTable &filterForTest(unsigned table) { return filters_.at(table); }

  private:
    struct StreamEntry
    {
        std::int64_t next_pf = 0;      // next line to prefetch
        std::int64_t stride = 0;
        std::int64_t last_demand = 0;  // stream head (demand side)
        std::uint64_t lru = 0;
        bool valid = false;
    };

    /** Allocate a filter entry in @p table for a miss at @p line. */
    void allocFilter(FilterTable &table, std::int64_t line,
                     std::int64_t stride, unsigned count);

    /** Allocate a stream and emit its startup burst. */
    Prefetches allocStream(std::int64_t line, std::int64_t stride,
                           unsigned startup_limit);

    /** Find the stream whose window covers @p line, or nullptr. */
    StreamEntry *findStream(std::int64_t line);

    /** True when lines @p a and @p b share an OS page. */
    bool samePage(std::int64_t a, std::int64_t b) const;

    /** Advance @p stream past demand @p line; maybe prefetch. */
    Prefetches advanceStream(StreamEntry &stream, std::int64_t line,
                             unsigned startup_limit);

    PrefetcherParams params_;
    std::array<FilterTable, 3> filters_;
    std::vector<StreamEntry> streams_;
    RingQueue<std::int64_t> recent_misses_;
    std::uint64_t tick_ = 0;

    Counter streams_alloc_;
    Counter generated_;
    Counter filter_allocs_;
    Counter stream_advances_;
};

} // namespace cmpsim

#endif // CMPSIM_PREFETCH_STRIDE_PREFETCHER_H
