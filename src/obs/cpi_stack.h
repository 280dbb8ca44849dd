/**
 * @file
 * Cycle-accounting CPI stacks and miss-genealogy records (DESIGN.md
 * §9): the attribution layer that says *which cycles* decompression
 * cost and prefetching hid, instead of only end-to-end IPC deltas.
 *
 * Two cooperating pieces:
 *
 *  - MissJournal — one record per L2-level request journey (demand or
 *    prefetch), keyed by line address. Every timing layer the request
 *    crosses closes the record's open "frontier" segment and opens the
 *    next one (L2 service -> link queue -> link serialization -> DRAM
 *    queue -> DRAM service -> link back -> decompression -> L2
 *    service), so a completed record is a gap-free timeline of the
 *    journey tagged with demand/prefetch origin, compressed size class
 *    and DRAM row-hit outcome. Completion feeds per-segment latency
 *    histograms and (when a tracer is armed) Chrome-trace async spans.
 *
 *  - CpiAccount — per-core critical-path accounting. Each core tick
 *    closes the window since the previous tick and attributes every
 *    cycle in it to exactly one leaf cause, decided by the blocking
 *    instruction at the *previous* tick (window-open time). Memory
 *    windows are subdivided by overlapping them with the blocking
 *    load's journal record, so one number per leaf sums exactly to
 *    elapsed cycles (the obs.cpi_conservation audit).
 *
 * Arming is opt-in (SystemConfig::cpi_stack / CMPSIM_CPISTACK) and all
 * stats land in a separate registry (CmpSystem::cpiStats()): default
 * stat dumps — and therefore the determinism fingerprints — are
 * byte-identical whether or not the layer is armed.
 *
 * Threading: one CmpSystem runs on one thread, so its journal and
 * accounts need no atomics; runner workers simulating several systems
 * at once share nothing here (each system owns its journal).
 */

#ifndef CMPSIM_OBS_CPI_STACK_H
#define CMPSIM_OBS_CPI_STACK_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"

namespace cmpsim {

/**
 * Leaf causes of the per-core CPI stack. Every elapsed cycle is
 * attributed to exactly one leaf; the sum over all leaves equals
 * elapsed cycles (enforced by CpiAccount::conserved()).
 */
enum class CpiLeaf : unsigned {
    Compute,        ///< dispatching/retiring (or no memory blockage)
    BranchRedirect, ///< pipeline refill after a mispredict
    MshrFull,       ///< dispatch stalled on a full L1D MSHR file
    L1iMiss,        ///< fetch stalled on an instruction miss
    L1dService,     ///< load miss: L1/uncovered handling (catch-all)
    L2Service,      ///< load miss: L2 lookup/bank/on-chip transfer
    LinkQueue,      ///< load miss: waiting for the pin link
    LinkSerialize,  ///< load miss: bytes crossing the pin link
    Decompression,  ///< load miss: decompression pipeline latency
    DramQueue,      ///< load miss: queued at the DRAM controller
    DramService,    ///< load miss: DRAM bank/burst service
    PfResidue,      ///< stall behind an in-flight (partial) prefetch
    Count
};

inline constexpr unsigned kCpiLeafCount =
    static_cast<unsigned>(CpiLeaf::Count);

/** Stable stat-name token for @p leaf ("compute", "link_queue", ...). */
const char *cpiLeafName(CpiLeaf leaf);

/** Trace tid of core @p cpu's journey track on the sim pseudo-process
 *  (offset keeps it clear of tid 0 and the runner's worker tids). */
inline constexpr unsigned kJourneyTraceTidBase = 1000;

/** Blocking cause a core reports at the end of one tick. */
enum class CpiBlock : unsigned {
    Compute,        ///< made progress (or nothing identifiable blocks)
    BranchRedirect,
    MshrFull,
    L1iMiss,
    L1dMiss,        ///< ROB head is an incomplete load (line known)
};

/** One (leaf, begin, end) slice of a request journey. */
struct MissSegment
{
    CpiLeaf leaf;
    Cycle begin;
    Cycle end;
};

/** Lifetime record of one L2-level request journey for a line. */
struct MissRecord
{
    Addr line = 0;
    Cycle start = 0;          ///< request left the L1 (or prefetcher)
    Cycle end = 0;            ///< data granted at the L1 (when complete)
    bool complete = false;
    bool prefetch_origin = false; ///< journey started as a prefetch
    bool l2_hit = false;
    bool penalized = false;       ///< paid the decompression latency
    unsigned demand_join = 0;     ///< demand requests that coalesced
    Cycle demand_join_when = 0;   ///< first demand coalescing time
    int row_hit = -1;             ///< 1/0 from banked DRAM, -1 unknown
    unsigned data_segments = 0;   ///< compressed size class (link form)
    unsigned cpu = 0;
    /** Span of the *previous* complete prefetch journey for this line
     *  that this demand journey displaced (full prefetch hit). */
    Cycle prev_pf_span = 0;
    std::uint64_t span_id = 0;    ///< Chrome-trace async span id

    /** Closed timeline slices, contiguous and in time order. */
    std::vector<MissSegment> segments;
    /** Open slice: @p frontier accrues from @p frontier_start. */
    CpiLeaf frontier = CpiLeaf::L2Service;
    Cycle frontier_start = 0;
};

/**
 * Journey journal + per-segment latency histograms. One instance per
 * CmpSystem, fed by L2Cache, MainMemory and DramBackend hooks; read by
 * every CpiAccount. All hooks run in serial event context.
 */
class MissJournal
{
  public:
    /** @p link_bytes_per_cycle / @p infinite_link mirror the pin-link
     *  config so the queueing/serialization split of link time is
     *  computable without touching the link itself. */
    MissJournal(double link_bytes_per_cycle, bool infinite_link);

    // ---- hooks (timing layers call these; serial context only) ----

    /** A request for @p line entered the L2 pipeline at @p when. */
    void onL2Request(unsigned cpu, Addr line, bool prefetch, Cycle when);

    /** L2 lookup hit: tag check done at @p lookup_done, data ready
     *  (after any decompression) at @p ready. */
    void onL2Hit(Addr line, Cycle lookup_done, Cycle ready,
                 bool penalized);

    /** The off-chip request message (enqueued at @p enq) arrived at
     *  the memory controller at @p arrive; the data reply will carry
     *  @p data_segments segments (the compressed size class). */
    void onMemRequestSent(Addr line, Cycle enq, Cycle arrive,
                          unsigned data_segments);

    /** Banked DRAM serviced the read: service ran [svc_start, done). */
    void onDramService(Addr line, Cycle svc_start, Cycle done,
                       bool row_hit);

    /** Fixed-latency DRAM path: service ran [begin, end). */
    void onDramFixed(Addr line, Cycle begin, Cycle end);

    /** The data message landed at the L2 at @p arrival; decompression
     *  (if any) completes at @p decomp_end (== arrival when none). */
    void onL2Fill(Addr line, Cycle arrival, Cycle decomp_end);

    /** Data granted to the requesting L1 at @p at_l1: the journey is
     *  complete — sample histograms and emit trace spans. */
    void onGranted(Addr line, Cycle at_l1);

    /** A prefetch journey ended without a fill (line already present
     *  or budget-dropped). Only closes pure prefetch records. */
    void onPrefetchSquashed(Addr line, Cycle when);

    // ---- reads ----

    /** Latest journey record for @p line, or nullptr. */
    const MissRecord *find(Addr line) const;

    std::uint64_t recordsCompleted() const { return completed_.value(); }

    void registerStats(StatRegistry &reg, const std::string &prefix);
    void resetStats();

  private:
    /** Close the open frontier as @p leaf up to @p until (no-op when
     *  @p until is not ahead of it) and restart it there. */
    static void seal(MissRecord &r, CpiLeaf leaf, Cycle until);

    /** Sample per-leaf histograms + emit trace spans for @p r. */
    void finish(MissRecord &r);

    double link_rate_;
    bool infinite_link_;

    std::unordered_map<Addr, MissRecord> records_;
    std::uint64_t next_span_id_ = 0;

    Counter completed_;
    Counter pf_squashed_;
    Counter pf_origin_completed_;
    Counter row_hit_fetches_;
    Counter row_miss_fetches_;
    Histogram total_hist_{50.0, 64};
    /** Per-record per-leaf dwell time, for the six journey leaves
     *  (L2Service..DramService in CpiLeaf order). */
    std::vector<Histogram> leaf_hists_;
};

/**
 * Per-core window accounting. The owning core calls beginTick() /
 * endTick() around each tick; beginTick closes the window opened at
 * the previous tick and attributes it per the cause recorded then.
 */
class CpiAccount
{
  public:
    CpiAccount(unsigned cpu, unsigned rob_entries,
               const MissJournal *journal);

    /** Remember the line a dispatched load (ROB @p slot) targets. */
    void
    noteLoad(unsigned slot, Addr line)
    {
        load_lines_[slot] = line;
    }

    /** Line of the load occupying ROB @p slot. */
    Addr loadLine(unsigned slot) const { return load_lines_[slot]; }

    /** Close and attribute the window [previous tick, @p now). */
    void beginTick(Cycle now);

    /** Record this tick's blocking cause for the window it opens.
     *  @p line is the blocking load's line for CpiBlock::L1dMiss. */
    void
    endTick(Cycle now, CpiBlock cause, Addr line)
    {
        (void)now;
        pending_ = cause;
        pending_line_ = line;
    }

    /** End-of-run: attribute the final open window up to @p end. */
    void flush(Cycle end);

    /** Conservation invariant: the leaves sum exactly to the cycles
     *  attributed so far (window origin to the last closed window). */
    bool conserved(std::string &why) const;

    std::uint64_t
    leafCycles(CpiLeaf leaf) const
    {
        return leaves_[static_cast<unsigned>(leaf)].value();
    }

    /** Attributed cycles so far (== sum of the leaves). */
    Cycle attributed() const { return from_ - origin_; }

    /** Info counter (outside the conservation sum): memory-latency
     *  cycles prefetches hid from this core's demand stalls. */
    std::uint64_t pfHiddenCycles() const { return pf_hidden_.value(); }

    void registerStats(StatRegistry &reg, const std::string &prefix);
    void resetStats();

  private:
    /** Attribute [from_, now) to pending_ and advance from_. */
    void close(Cycle now);

    /** Subdivide a blocked-on-load window via the journal. */
    void attributeMiss(Cycle begin, Cycle end, Addr line);

    unsigned cpu_;
    const MissJournal *journal_;
    std::vector<Addr> load_lines_;

    Cycle origin_ = 0; ///< accounting epoch (reset at stats reset)
    Cycle from_ = 0;   ///< open-window start (last tick time)
    CpiBlock pending_ = CpiBlock::Compute;
    Addr pending_line_ = 0;

    Counter leaves_[kCpiLeafCount];
    Counter pf_hidden_;
};

} // namespace cmpsim

#endif // CMPSIM_OBS_CPI_STACK_H
