/**
 * @file
 * Stride-based hardware prefetcher modeled on the IBM Power4/Power5
 * implementation the paper uses (Section 2, Table 1):
 *
 *  - three 32-entry filter tables: positive unit stride, negative unit
 *    stride, and non-unit stride;
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

#include <cstdint>
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

/** Static configuration of one prefetcher instance. */
struct PrefetcherParams
{
    /** Entries per filter table (three tables). */
    unsigned filter_entries = 32;

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

  private:
    struct FilterEntry
    {
        std::int64_t last_line = 0;
        std::int64_t stride = 0; // +1 / -1 / non-unit
        unsigned count = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    struct StreamEntry
    {
        std::int64_t next_pf = 0;      // next line to prefetch
        std::int64_t stride = 0;
        std::int64_t last_demand = 0;  // stream head (demand side)
        std::uint64_t lru = 0;
        bool valid = false;
    };

    using FilterTable = std::vector<FilterEntry>;

    /** Match+advance in one table; returns matched entry or nullptr. */
    FilterEntry *matchFilter(FilterTable &table, std::int64_t line,
                             std::int64_t stride);

    /** Allocate (LRU) a filter entry. */
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
    FilterTable pos_unit_;
    FilterTable neg_unit_;
    FilterTable non_unit_;
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
