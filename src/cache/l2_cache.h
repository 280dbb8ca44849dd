/**
 * @file
 * The shared, banked, inclusive L2 cache with optional cache
 * compression — the center of the paper's CMP (Section 2).
 *
 * Geometry. The L2 is built from DecoupledSet structures. The paper's
 * two configurations:
 *  - uncompressed: 8 K sets x 8 ways (4 MB), every line 8 segments;
 *  - compressed:  16 K sets x 8 tags over 32 segments of data space
 *    (4 MB of data, 4-8 effective ways), lines stored FPC-compressed.
 *
 * Coherence. MSI with the L2 holding full sharer knowledge: per-tag
 * sharer bits plus an owner field for a modified L1 copy. Inclusion is
 * enforced: evicting an L2 line invalidates L1 copies through a
 * callback the system wires up. Directory state changes are atomic at
 * an event; bandwidth is charged on the side (writebacks and
 * invalidations consume on-chip/off-chip bandwidth but do not hold
 * locks across events), which keeps the protocol race-free in the
 * sequential event kernel.
 *
 * Timing. A request crosses the on-chip interconnect (shared byte
 * budget + hop latency), occupies its bank, then pays the 15-cycle
 * lookup latency (+5 cycles decompression for a compressed hit). A
 * miss allocates an MSHR (coalescing later requests) and fetches from
 * memory; the fill inserts the line, evicting victims per the
 * decoupled-set rules.
 *
 * Prefetching hooks. Per-core L2 stride prefetchers train on this
 * core's demand (and L1-prefetch) misses; their prefetches fill the L2
 * with the prefetch bit set. The adaptive controller (one counter for
 * the whole shared L2, per the paper) observes useful / useless /
 * harmful prefetch evidence generated here.
 */

#ifndef CMPSIM_CACHE_L2_CACHE_H
#define CMPSIM_CACHE_L2_CACHE_H

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/decoupled_set.h"
#include "src/cache/request_types.h"
#include "src/common/stats.h"
#include "src/mem/main_memory.h"
#include "src/mem/value_store.h"
#include "src/prefetch/adaptive_controller.h"
#include "src/prefetch/stride_prefetcher.h"
#include "src/sim/bandwidth_resource.h"
#include "src/sim/event_queue.h"

namespace cmpsim {

class InvariantRegistry;
class MissJournal;

/** Static configuration of the shared L2. */
struct L2Params
{
    unsigned sets = 8192;
    unsigned banks = 8;
    unsigned tags_per_set = 8;
    unsigned segment_budget = 64; ///< 64 = uncompressed 8-way; 32 = compressed
    bool compressed = false;      ///< store lines FPC-compressed

    Cycle lookup_latency = 15;        ///< uncompressed hit (Table 1)
    Cycle decompression_latency = 5;  ///< added for compressed hits
    Cycle bank_occupancy = 2;         ///< bank busy time per access
    Cycle onchip_hop_latency = 2;     ///< interconnect wire latency
    Cycle owner_retrieval_latency = 10; ///< fetch M copy from an L1

    double onchip_bytes_per_cycle = 64.0; ///< 320 GB/s at 5 GHz

    unsigned cores = 8;

    /** Outstanding L2-prefetch MSHRs allowed per core. */
    unsigned prefetch_outstanding = 32;

    /** "We allow L1 prefetches to trigger L2 prefetches" (Section 2);
     *  clear for the ablation bench. */
    bool l1_prefetch_trains_l2 = true;

    /**
     * Adaptive compression policy [Alameldeen & Wood, ISCA 2004],
     * which the paper's Section 2 runs but reports "always adapted to
     * compress" for its workloads: a global compression predictor
     * (GCP) saturating counter weighs the benefit of compression
     * (hits to lines resident only because of compression, LRU stack
     * depth beyond the uncompressed associativity, worth one memory
     * access each) against its cost (decompression cycles on hits
     * that would have been hits anyway). New fills store compressed
     * only while the predictor is non-negative.
     */
    bool adaptive_compression = false;

    /** Benefit credited per avoided miss (≈ memory latency). */
    std::int64_t gcp_benefit = 400;

    /** Saturation bound for the predictor. */
    std::int64_t gcp_max = 1 << 20;

    /** Audit builds: verify an FPC and a BDI compress -> decompress
     *  round-trip of the line's current value on every L2 fill. */
    bool verify_fill_roundtrip = false;
};

/** The shared inclusive L2 with its on-chip interconnect. */
class L2Cache
{
  public:
    /**
     * Fill/hit response to the requesting L1.
     * @param Cycle the cycle data is at the L1
     * @param bool exclusive permission granted
     * @param bool the line was compressed in the L2 (penalty paid)
     */
    using Done = std::function<void(Cycle, bool, bool)>;

    /** Inclusion hook: invalidate @p line in L1 @p cpu; returns true
     *  when the L1 copy was dirty. */
    using L1Invalidator = std::function<bool(unsigned cpu, Addr line)>;

    /** Coherence hook: downgrade L1 @p cpu's M copy of @p line to S. */
    using L1Downgrader = std::function<void(unsigned cpu, Addr line)>;

    /** Observer for miss classification (Figure 8): (type, line). */
    using MissObserver = std::function<void(ReqType, Addr)>;

    L2Cache(EventQueue &eq, ValueStore &values, MainMemory &memory,
            const L2Params &params);

    /** Wire the per-core L2 prefetcher (may be null). */
    void setPrefetcher(unsigned cpu, StridePrefetcher *pf);

    /** Wire the (single, shared) adaptive controller (may be null). */
    void setAdaptiveController(AdaptivePrefetchController *ctl);

    /** Wire the inclusion invalidator. */
    void setL1Invalidator(L1Invalidator inv);

    /** Wire the M-to-S downgrade hook. */
    void setL1Downgrader(L1Downgrader down);

    /** Observe demand misses and prefetch fills (for Figure 8). */
    void setMissObserver(MissObserver obs);

    /** Wire the (opt-in) miss-genealogy journal; nullptr disarms. */
    void setJournal(MissJournal *j) { journal_ = j; }

    /**
     * Functional (warmup) mode: state changes apply instantly and no
     * bandwidth is charged, so warmup cannot leave a backlog on the
     * timed channels.
     */
    void setFunctionalMode(bool on) { functional_mode_ = on; }
    bool functionalMode() const { return functional_mode_; }

    /**
     * Timed request from L1 @p cpu for @p line.
     * @param exclusive store permission needed (GETX/upgrade)
     * @param type demand / L1 prefetch / L2 prefetch
     * @param when cycle the request leaves the L1
     * @param done response callback (empty for L2 prefetches)
     */
    void request(unsigned cpu, Addr line, bool exclusive, ReqType type,
                 Cycle when, Done done);

    /** L1 dirty eviction: merge data, charge on-chip traffic. Atomic. */
    void writeback(unsigned cpu, Addr line, Cycle when);

    /** L1 clean eviction: clear the sharer bit. Atomic, free. */
    void sharerEvict(unsigned cpu, Addr line);

    /** Late store-permission fix-up after a shared fill (see .cc). */
    void upgradeAtomic(unsigned cpu, Addr line);

    /**
     * Functional (no timing) access for cache warmup: updates tag
     * state, LRU, directory and prefetch training exactly like the
     * timed path, and fills misses instantly.
     * @return true on hit.
     */
    bool accessFunctional(unsigned cpu, Addr line, bool exclusive,
                          ReqType type);

    // --- Introspection & stats -----------------------------------

    /** Bytes of (uncompressed) payload currently resident. */
    std::uint64_t effectiveBytes() const;

    /** Data capacity in bytes (sets x segment budget x 8). */
    std::uint64_t dataCapacityBytes() const;

    /** Current compression ratio (effective / capacity). */
    double
    compressionRatio() const
    {
        return static_cast<double>(effectiveBytes()) /
               static_cast<double>(dataCapacityBytes());
    }

    /** Mean victim tags per set (spare-tag occupancy, Section 5.4). */
    double meanVictimTags() const;

    /** Adaptive-compression predictor value (ISCA'04 GCP). */
    std::int64_t gcpValue() const { return gcp_; }

    /** True when new fills are currently stored compressed. */
    bool
    compressingNow() const
    {
        return params_.compressed &&
               (!params_.adaptive_compression || gcp_ >= 0);
    }

    const L2Params &params() const { return params_; }
    BandwidthResource &onchip() { return onchip_; }

    std::uint64_t demandAccesses() const { return demand_accesses_.value(); }
    std::uint64_t demandMisses() const { return demand_misses_.value(); }
    std::uint64_t demandHits() const { return demand_hits_.value(); }
    std::uint64_t prefetchHits(PfSource src) const;
    std::uint64_t prefetchFills(PfSource src) const;
    std::uint64_t l2PrefetchesIssued() const { return l2pf_issued_.value(); }
    std::uint64_t penalizedHits() const { return penalized_hits_.value(); }

    void registerStats(StatRegistry &reg, const std::string &prefix);
    void resetStats();

    /**
     * Register this cache's invariants under "<name>.*": per-set
     * structural integrity, prefetch-MSHR accounting, demand-stat
     * balance and the prefetch-pipeline bound.
     */
    void registerAudits(InvariantRegistry &reg, const std::string &name);

    /** Test hook: direct set inspection. */
    const DecoupledSet &setAt(unsigned index) const { return sets_[index]; }
    unsigned setIndexOf(Addr line) const { return setIndex(line); }

  private:
    struct Waiter
    {
        unsigned cpu;
        bool exclusive;
        ReqType type;
        Done done;
    };

    struct Mshr
    {
        std::vector<Waiter> waiters;
        bool prefetch_only = true;
        PfSource pf_source = PfSource::None;
        unsigned pf_cpu = 0; ///< for the prefetch-outstanding budget
    };

    unsigned
    setIndex(Addr line) const
    {
        return static_cast<unsigned>(lineNumber(line) & set_mask_);
    }

    unsigned
    bankIndex(Addr line) const
    {
        // Banks interleave on the least-significant block address bits
        // (Section 2).
        return static_cast<unsigned>(lineNumber(line) & bank_mask_);
    }

    /** Line segment charge under this config. */
    unsigned storedSegments(Addr line);

    /** The lookup stage of a timed request (runs at bank time). */
    void lookup(unsigned cpu, Addr line, bool exclusive, ReqType type,
                Cycle when, Done done);

    /** Coherence actions + data response for a present line. */
    void grant(unsigned cpu, Addr line, bool exclusive, ReqType type,
               Cycle ready, bool penalized, const Done &done);

    /** Fill from memory: insert, evict, respond to waiters. */
    void fill(Addr line, Cycle arrival);

    /** Debug-mode FPC + BDI round-trip of the line being filled. */
    void verifyFillRoundTrip(Addr line);

    /** Handle one evicted L2 line (inclusion + writeback + stats). */
    void handleVictim(const TagEntry &victim, Cycle when);

    /** Train the per-core L2 prefetcher on a miss at @p line. */
    void trainPrefetcher(unsigned cpu, Addr line, Cycle when);

    /** First demand touch of a prefetched line. */
    void onPrefetchBitHit(unsigned cpu, TagEntry &e, Cycle when);

    /** Update the adaptive-compression predictor on a hit. */
    void updateGcp(const DecoupledSet &set, Addr line,
                   bool compressed_line);

    unsigned allowedStartup(const StridePrefetcher &pf) const;

    EventQueue &eq_;
    ValueStore &values_;
    MainMemory &memory_;
    L2Params params_;

    Addr set_mask_;  ///< sets - 1 (sets is a power of two)
    Addr bank_mask_; ///< banks - 1 (banks is a power of two)
    std::vector<TagEntry> tags_;     ///< every set's tags, set-major
    std::vector<DecoupledSet> sets_; ///< views into tags_
    std::vector<Cycle> bank_free_;
    BandwidthResource onchip_;

    std::unordered_map<Addr, Mshr> mshrs_;
    std::vector<unsigned> pf_outstanding_; // per core

    std::vector<StridePrefetcher *> prefetchers_;
    AdaptivePrefetchController *adaptive_ = nullptr;
    L1Invalidator l1_invalidate_;
    L1Downgrader l1_downgrade_;
    MissObserver miss_observer_;
    MissJournal *journal_ = nullptr;
    bool functional_mode_ = false;

    // Statistics.
    Counter demand_accesses_;
    Counter demand_hits_;
    Counter demand_misses_;
    Counter partial_hits_;       ///< demand hit an in-flight prefetch
    Counter upgrade_requests_;
    Counter penalized_hits_;     ///< hits paying the decompression cost
    Counter pf_hits_l1_;
    Counter pf_hits_l2_;
    Counter pf_fills_l1_;
    Counter pf_fills_l2_;
    Counter l2pf_generated_;
    Counter l2pf_issued_;        ///< missed and fetched from memory
    Counter l2pf_squashed_;      ///< already present or in flight
    Counter l2pf_dropped_;       ///< outstanding budget exhausted
    Counter useless_pf_evicted_;
    Counter harmful_miss_flags_;
    Counter evictions_;
    Counter memory_writebacks_;
    Counter l1_writebacks_;
    Counter invalidations_sent_;
    Counter owner_retrievals_;
    Counter gcp_benefit_events_;
    Counter gcp_cost_events_;
    std::int64_t gcp_ = 0;

    // Prefetch-pipeline conservation (audit): L2 prefetches counted as
    // generated but whose lookup event has not run yet. Not a stat —
    // never reset — so the pipeline audit stays exact across the
    // warmup/measure stat reset (warmup can leave lookups in flight).
    std::uint64_t l2pf_in_network_ = 0;
    std::uint64_t l2pf_pending_at_reset_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_CACHE_L2_CACHE_H
