/**
 * @file
 * Private L1 cache (used for both the instruction and data sides):
 * 64 KB, 4-way, 64-byte lines, 3-cycle access, write-back and
 * write-allocate, always uncompressed (Section 2 keeps decompression
 * off the L1 hit path).
 *
 * Coherence: the L1 holds lines in M (dirty flag set) or S. Stores to
 * S lines request an upgrade from the L2 directory. The L2 reaches in
 * through invalidateLine()/downgradeLine() for inclusion and MSI
 * actions.
 *
 * Prefetching: an attached Power4-style stride prefetcher trains on
 * demand misses; its prefetch fills set the per-tag prefetch bit. When
 * adaptive prefetching is enabled, the set's tag array carries extra
 * victim tags (the paper's "four extra tags per set") so harmful
 * prefetches can be detected.
 */

#ifndef CMPSIM_CACHE_L1_CACHE_H
#define CMPSIM_CACHE_L1_CACHE_H

#include <string>
#include <utility>
#include <vector>

#include "src/cache/decoupled_set.h"
#include "src/cache/l2_cache.h"
#include "src/cache/request_types.h"
#include "src/common/list_pool.h"
#include "src/common/stats.h"
#include "src/prefetch/adaptive_controller.h"
#include "src/prefetch/stride_prefetcher.h"
#include "src/sim/event_queue.h"

namespace cmpsim {

/** Static configuration of one L1. */
struct L1Params
{
    unsigned sets = 256;
    unsigned ways = 4;

    /** Extra victim-only tags per set (adaptive prefetching). */
    unsigned victim_tags = 0;

    Cycle hit_latency = 3;

    /** Outstanding misses (Table 1: 16 per processor). */
    unsigned mshrs = 16;

    /** Free MSHRs a prefetch must leave for demand traffic. */
    unsigned prefetch_headroom = 2;
};

/** One private L1 (I or D). */
class L1Cache
{
  public:
    /** Completion callback: cycle at which the access is done. A hit
     *  schedules it as is, so it is the event queue's callable. */
    using Done = EventQueue::Callback;

    L1Cache(EventQueue &eq, L2Cache &l2, unsigned cpu,
            const L1Params &params);

    void setPrefetcher(StridePrefetcher *pf) { prefetcher_ = pf; }
    void setAdaptiveController(AdaptivePrefetchController *c)
    {
        adaptive_ = c;
    }

    /** True when a demand access to @p addr can be issued now. */
    bool canAccept(Addr addr) const;

    /** Non-intrusive hit check (no LRU/stat side effects). */
    bool
    probeHit(Addr addr) const
    {
        return sets_[setIndex(lineAddr(addr))].find(lineAddr(addr)) !=
               nullptr;
    }

    /**
     * Timed demand access (load, store, or instruction fetch).
     * @p done may be empty only for a plain hit (a pipelined I-fetch
     * hit), which then schedules no completion event.
     * @pre canAccept(addr).
     */
    void access(Addr addr, bool is_write, Cycle when, Done done);

    /** Timed prefetch into this L1 (from its stride prefetcher). */
    void prefetchLine(Addr line, Cycle when);

    /** L2 inclusion/coherence: drop @p line. @return was dirty (M). */
    bool invalidateLine(Addr line);

    /** L2 coherence: demote an M copy to S (data already merged). */
    void downgradeLine(Addr line);

    /**
     * Functional access (warmup and fast-forward): updates tags,
     * directory and prefetcher state with no timing, and charges no
     * bandwidth for the evictions it causes. @return true on hit.
     */
    bool accessFunctional(Addr addr, bool is_write);

    unsigned cpu() const { return cpu_; }
    const L1Params &params() const { return params_; }

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t prefetchesIssued() const { return pf_issued_.value(); }
    std::uint64_t prefetchHits() const { return pf_hits_.value(); }
    std::uint64_t decompAvoided() const { return decomp_avoided_.value(); }
    std::uint64_t outstanding() const { return mshrs_used_; }

    void registerStats(StatRegistry &reg, const std::string &prefix);

    // The l1.* invariant checks (DESIGN.md §6): true when the
    // invariant holds, else @p why says what disagrees.
    bool auditSetIntegrity(std::string &why) const;
    bool auditMshrLimit(std::string &why) const;
    bool auditAccessBalance(std::string &why) const;
    bool auditAdaptiveFeedback(std::string &why) const;

    /** Test hook. */
    const DecoupledSet &setAt(unsigned index) const { return sets_[index]; }

  private:
    struct Waiter
    {
        bool is_write;
        Done done;
    };

    using WaiterPool = ListPool<Waiter>;

    /** One miss status holding register; free when line is invalid. */
    struct Mshr
    {
        Addr line = kAddrInvalid;
        WaiterPool::List waiters; ///< in waiters_
        bool prefetch_only = true;
        bool requested_exclusive = false;
    };

    unsigned
    setIndex(Addr line) const
    {
        return static_cast<unsigned>(lineNumber(line) & set_mask_);
    }

    /** The MSHR tracking @p line, or nullptr. */
    const Mshr *
    findMshr(Addr line) const
    {
        for (const Mshr &m : mshr_file_) {
            if (m.line == line)
                return &m;
        }
        return nullptr;
    }

    Mshr *
    findMshr(Addr line)
    {
        return const_cast<Mshr *>(std::as_const(*this).findMshr(line));
    }

    /** Claim a free MSHR for @p line. @pre outstanding() < mshrs. */
    Mshr &allocMshr(Addr line);

    /** Miss/upgrade path for a demand access. */
    void demandMiss(Addr line, bool is_write, Cycle when,
                    const Done &done);

    /** Issue the L2 request for @p line; the response fills it. */
    void requestFromL2(Addr line, bool is_write, ReqType type,
                       Cycle when);

    /** Response from the L2 for @p line. */
    void fill(Addr line, Cycle at, bool exclusive, bool was_compressed);

    /** Evicted-line handling (writeback or sharer notification); a
     *  @p functional eviction's writeback charges no bandwidth. */
    void handleVictim(const TagEntry &victim, Cycle when, bool functional);

    /** First demand use of a prefetched line. */
    void onPrefetchBitHit(TagEntry &e, Cycle when);

    unsigned allowedStartup() const;

    EventQueue &eq_;
    L2Cache &l2_;
    unsigned cpu_;
    L1Params params_;
    Addr set_mask_;                  ///< sets - 1 (a power of two)
    std::vector<TagEntry> tags_;     ///< every set's tags, set-major
    std::vector<DecoupledSet> sets_; ///< views into tags_
    std::vector<Mshr> mshr_file_;    ///< params.mshrs entries, unordered
    unsigned mshrs_used_ = 0;        ///< busy entries in mshr_file_
    WaiterPool waiters_; ///< every MSHR's waiter list

    StridePrefetcher *prefetcher_ = nullptr;
    AdaptivePrefetchController *adaptive_ = nullptr;

    Counter accesses_;
    Counter hits_;
    Counter misses_;
    Counter upgrades_;
    Counter writebacks_;
    Counter pf_issued_;
    Counter pf_fills_;
    Counter pf_hits_;
    Counter pf_squashed_;
    Counter pf_dropped_;
    Counter pf_useless_evicted_;
    Counter harmful_miss_flags_;
    Counter partial_hits_;
    Counter invalidations_received_;
    Counter decomp_avoided_;
};

} // namespace cmpsim

#endif // CMPSIM_CACHE_L1_CACHE_H
