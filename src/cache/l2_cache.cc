#include "src/cache/l2_cache.h"

#include <algorithm>

#include "src/audit/audits.h"
#include "src/compression/bdi.h"
#include "src/obs/cpi_stack.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/sim/fault_injection.h"

namespace cmpsim {

namespace {
/** On-chip request / invalidation message size. */
constexpr unsigned kCtrlBytes = kMessageHeaderBytes;
/** On-chip data message size (header + full line; L1s are
 *  uncompressed, so L1<->L2 transfers always carry 64 B of data). */
constexpr unsigned kDataBytes = kMessageHeaderBytes + kLineBytes;
} // namespace

L2Cache::L2Cache(EventQueue &eq, ValueStore &values, MainMemory &memory,
                 const L2Params &params)
    : eq_(eq), values_(values), memory_(memory), params_(params),
      set_mask_(params.sets - 1), bank_mask_(params.banks - 1),
      tags_(std::size_t{params.sets} * params.tags_per_set),
      bank_free_(params.banks, 0),
      onchip_(params.onchip_bytes_per_cycle),
      pf_outstanding_(params.cores, 0),
      prefetchers_(params.cores, nullptr)
{
    cmpsim_assert(params.sets > 0 && (params.sets & (params.sets - 1)) == 0,
                  "L2 set count %u is not a power of two", params.sets);
    cmpsim_assert(params.banks > 0 &&
                      (params.banks & (params.banks - 1)) == 0,
                  "L2 bank count %u is not a power of two", params.banks);
    cmpsim_assert(params.sets % params.banks == 0);
    cmpsim_assert(params.cores <= kMaxCores);
    sets_.reserve(params.sets);
    for (unsigned i = 0; i < params.sets; ++i) {
        sets_.emplace_back(&tags_[std::size_t{i} * params.tags_per_set],
                           params.tags_per_set, params.segment_budget);
    }
}

void
L2Cache::setPrefetcher(unsigned cpu, StridePrefetcher *pf)
{
    cmpsim_assert(cpu < prefetchers_.size());
    prefetchers_[cpu] = pf;
}

void
L2Cache::setAdaptiveController(AdaptivePrefetchController *ctl)
{
    adaptive_ = ctl;
}

void
L2Cache::setL1Invalidator(L1Invalidator inv)
{
    l1_invalidate_ = std::move(inv);
}

void
L2Cache::setL1Downgrader(L1Downgrader down)
{
    l1_downgrade_ = std::move(down);
}

void
L2Cache::setMissObserver(MissObserver obs)
{
    miss_observer_ = std::move(obs);
}

unsigned
L2Cache::storedSegments(Addr line)
{
    return compressingNow() ? values_.segments(line) : kSegmentsPerLine;
}

unsigned
L2Cache::allowedStartup(const StridePrefetcher &pf) const
{
    return adaptive_ ? std::min(adaptive_->allowedStartup(),
                                pf.params().startup_prefetches)
                     : pf.params().startup_prefetches;
}

void
L2Cache::request(unsigned cpu, Addr line, bool exclusive, ReqType type,
                 Cycle when, Done done)
{
    cmpsim_assert(line == lineAddr(line));

    if (journal_ != nullptr)
        journal_->onL2Request(cpu, line, type != ReqType::Demand, when);

    if (type == ReqType::L2Prefetch)
        ++l2pf_in_network_;

    // L2-prefetcher requests originate at the L2 and skip the
    // L1-to-L2 interconnect; everything else crosses it.
    Cycle arrival = when;
    if (type != ReqType::L2Prefetch) {
        arrival = onchip_.reserve(when, kCtrlBytes) +
                  params_.onchip_hop_latency;
    }

    const unsigned bank = bankIndex(line);
    const Cycle start = std::max(arrival, bank_free_[bank]);
    bank_free_[bank] = start + params_.bank_occupancy;

    eq_.schedule(start,
                 [this, cpu, line, exclusive, type,
                  done = std::move(done)](Cycle at) mutable {
                     lookup(cpu, line, exclusive, type, at,
                            std::move(done));
                 });
}

void
L2Cache::updateGcp(const DecoupledSet &set, Addr line,
                   bool compressed_line)
{
    if (!params_.compressed || !params_.adaptive_compression)
        return;
    const int depth = set.validStackDepth(line);
    if (depth < 0)
        return;
    const int uncompressed_ways =
        static_cast<int>(params_.segment_budget / kSegmentsPerLine);
    if (depth >= uncompressed_ways) {
        // This hit exists only because compression packed extra
        // lines: credit one avoided memory access.
        ++gcp_benefit_events_;
        gcp_ = std::min(gcp_ + params_.gcp_benefit, params_.gcp_max);
    } else if (compressed_line) {
        // A hit that an uncompressed cache would also have served:
        // compression only added the decompression penalty.
        ++gcp_cost_events_;
        gcp_ = std::max(gcp_ - static_cast<std::int64_t>(
                                   params_.decompression_latency),
                        -params_.gcp_max);
    }
}

void
L2Cache::onPrefetchBitHit(unsigned cpu, TagEntry &e, Cycle when)
{
    const PfSource src = e.pf_source;
    e.prefetch = false;
    e.pf_source = PfSource::None;
    if (src == PfSource::L2)
        ++pf_hits_l2_;
    else
        ++pf_hits_l1_;
    if (adaptive_)
        adaptive_->onUsefulPrefetch();

    // The demand stream reached prefetched data: advance the stream.
    StridePrefetcher *pf = prefetchers_[cpu];
    if (pf && src == PfSource::L2) {
        for (Addr a : pf->observeUse(e.line, allowedStartup(*pf))) {
            ++l2pf_generated_;
            request(cpu, a, false, ReqType::L2Prefetch, when, nullptr);
        }
    }
}

void
L2Cache::lookup(unsigned cpu, Addr line, bool exclusive, ReqType type,
                Cycle when, Done done)
{
    CMPSIM_PROF_SCOPE("l2.lookup");
    DecoupledSet &set = sets_[setIndex(line)];
    TagEntry *e = set.find(line);

    if (type == ReqType::Demand)
        ++demand_accesses_;
    if (type == ReqType::L2Prefetch) {
        cmpsim_assert(l2pf_in_network_ > 0);
        --l2pf_in_network_;
    }

    if (e != nullptr) {
        // ------------------------------ hit
        if (type == ReqType::L2Prefetch) {
            ++l2pf_squashed_;
            if (journal_ != nullptr)
                journal_->onPrefetchSquashed(line, when);
            return;
        }
        if (type == ReqType::Demand)
            ++demand_hits_;

        const bool penalized =
            params_.compressed && e->segments < kSegmentsPerLine;
        if (penalized && type == ReqType::Demand)
            ++penalized_hits_;
        if (type == ReqType::Demand)
            updateGcp(set, line, e->segments < kSegmentsPerLine);

        if (e->prefetch && type == ReqType::Demand)
            onPrefetchBitHit(cpu, *e, when);

        set.touch(e);
        Cycle ready = when + params_.lookup_latency +
                      (penalized ? params_.decompression_latency : 0);
        if (journal_ != nullptr) {
            journal_->onL2Hit(line, when + params_.lookup_latency,
                              ready, penalized);
        }
        grant(cpu, line, exclusive, type, ready, penalized, done);
        return;
    }

    // ------------------------------ miss
    if (type == ReqType::Demand) {
        ++demand_misses_;
        if (miss_observer_)
            miss_observer_(ReqType::Demand, line);
        // Harmful-prefetch probe (Section 3): the missing address
        // matches a victim tag while prefetched lines occupy the set.
        if (adaptive_ && set.victimTagMatch(line) &&
            set.anyValidPrefetch()) {
            ++harmful_miss_flags_;
            adaptive_->onHarmfulPrefetch();
        }
    }

    // Train the per-core L2 prefetcher on demand and L1-prefetch
    // misses ("we allow L1 prefetches to trigger L2 prefetches").
    if (type == ReqType::Demand ||
        (type == ReqType::L1Prefetch && params_.l1_prefetch_trains_l2))
        trainPrefetcher(cpu, line, when);

    auto it = mshrs_.find(line);
    if (it != mshrs_.end()) {
        // Coalesce with the in-flight fetch.
        Mshr &m = it->second;
        if (type == ReqType::L2Prefetch) {
            ++l2pf_squashed_;
            return;
        }
        if (type == ReqType::Demand && m.prefetch_only)
            ++partial_hits_;
        if (type == ReqType::Demand)
            m.prefetch_only = false;
        m.waiters.push_back(
            Waiter{cpu, exclusive, type, std::move(done)});
        return;
    }

    // New MSHR.
    if (type == ReqType::L2Prefetch) {
        if (pf_outstanding_[cpu] >= params_.prefetch_outstanding) {
            ++l2pf_dropped_;
            if (journal_ != nullptr)
                journal_->onPrefetchSquashed(line, when);
            return;
        }
        ++pf_outstanding_[cpu];
        ++l2pf_issued_;
        traceInstant("pf.issue", when,
                     {{"line", line}, {"cpu", std::uint64_t{cpu}}});
    }

    Mshr m;
    m.prefetch_only = type != ReqType::Demand;
    m.pf_source = type == ReqType::L2Prefetch  ? PfSource::L2
                  : type == ReqType::L1Prefetch ? PfSource::L1
                                                : PfSource::None;
    m.pf_cpu = cpu;
    if (done)
        m.waiters.push_back(
            Waiter{cpu, exclusive, type, std::move(done)});
    mshrs_.emplace(line, std::move(m));

    memory_.fetchLine(line, when + params_.lookup_latency,
                      type != ReqType::Demand,
                      [this, line](Cycle arrival) { fill(line, arrival); });
}

void
L2Cache::grant(unsigned cpu, Addr line, bool exclusive, ReqType type,
               Cycle ready, bool penalized, const Done &done)
{
    (void)type;
    DecoupledSet &set = sets_[setIndex(line)];
    TagEntry *e = set.find(line);
    if (e == nullptr) {
        // A previous waiter's grant ran its L1 fill synchronously and
        // the resulting writeback/resize evicted this line from the
        // set re-entrantly. Re-install it so the grant below keeps
        // the directory and inclusion consistent.
        TagEntry entry;
        entry.line = line;
        entry.valid = true;
        entry.segments =
            static_cast<std::uint8_t>(storedSegments(line));
        for (const TagEntry &victim : set.insert(entry))
            handleVictim(victim, ready);
        e = set.find(line);
    }
    cmpsim_assert(e != nullptr);

    if (exclusive) {
        if (e->owner != kNoOwner &&
            static_cast<unsigned>(e->owner) != cpu) {
            ++owner_retrievals_;
            ++invalidations_sent_;
            onchip_.reserve(ready, kCtrlBytes);
            if (l1_invalidate_)
                l1_invalidate_(static_cast<unsigned>(e->owner), line);
            e->dirty = true;
            ready += params_.owner_retrieval_latency;
        }
        bool invalidated_any = false;
        for (unsigned c = 0; c < params_.cores; ++c) {
            if (c != cpu && e->hasSharer(c)) {
                ++invalidations_sent_;
                onchip_.reserve(ready, kCtrlBytes);
                if (l1_invalidate_)
                    l1_invalidate_(c, line);
                invalidated_any = true;
            }
        }
        if (invalidated_any)
            ready += 2 * params_.onchip_hop_latency;
        e->sharers = 0;
        e->owner = static_cast<std::int8_t>(cpu);
    } else {
        if (e->owner != kNoOwner &&
            static_cast<unsigned>(e->owner) != cpu) {
            // Retrieve the modified copy; the old owner keeps a
            // shared copy (M -> S with writeback to L2).
            ++owner_retrievals_;
            const auto old_owner = static_cast<unsigned>(e->owner);
            onchip_.reserve(ready, kDataBytes);
            if (l1_downgrade_)
                l1_downgrade_(old_owner, line);
            e->dirty = true;
            e->addSharer(old_owner);
            e->owner = kNoOwner;
            ready += params_.owner_retrieval_latency;
        }
        e->addSharer(cpu);
        if (e->owner != kNoOwner &&
            static_cast<unsigned>(e->owner) == cpu)
            e->owner = kNoOwner; // regrab as shared after losing M
    }

    // Data response to the L1 (upgrades still get a control message).
    // The callback runs NOW with the future arrival timestamp: the
    // L1's state change must be atomic with this directory update, or
    // an invalidation arriving in the transfer window would be lost
    // and a stale copy installed afterwards (see the coherence
    // property tests). Cores still observe completion at at_l1.
    const unsigned bytes = kDataBytes;
    const Cycle at_l1 =
        onchip_.reserve(ready, bytes) + params_.onchip_hop_latency;
    if (journal_ != nullptr)
        journal_->onGranted(line, at_l1);
    if (done)
        done(at_l1, exclusive, penalized);
}

void
L2Cache::trainPrefetcher(unsigned cpu, Addr line, Cycle when)
{
    StridePrefetcher *pf = prefetchers_[cpu];
    if (!pf)
        return;
    for (Addr a : pf->observeMiss(line, allowedStartup(*pf))) {
        ++l2pf_generated_;
        request(cpu, a, false, ReqType::L2Prefetch, when, nullptr);
    }
}

void
L2Cache::fill(Addr line, Cycle arrival)
{
    faultSite("l2.fill");
    traceInstant("l2.fill", arrival, {{"line", line}});
    auto it = mshrs_.find(line);
    cmpsim_assert(it != mshrs_.end());
    Mshr m = std::move(it->second);
    mshrs_.erase(it);

    if (m.pf_source == PfSource::L2) {
        cmpsim_assert(pf_outstanding_[m.pf_cpu] > 0);
        --pf_outstanding_[m.pf_cpu];
    }

    DecoupledSet &set = sets_[setIndex(line)];
    TagEntry entry;
    entry.line = line;
    entry.valid = true;
    entry.segments = static_cast<std::uint8_t>(storedSegments(line));
    entry.prefetch = m.prefetch_only;
    entry.pf_source = m.prefetch_only ? m.pf_source : PfSource::None;

    if (entry.prefetch) {
        if (entry.pf_source == PfSource::L2)
            ++pf_fills_l2_;
        else
            ++pf_fills_l1_;
        traceInstant("pf.fill", arrival,
                     {{"line", line},
                      {"source", entry.pf_source == PfSource::L2
                                     ? "l2"
                                     : "l1"}});
        if (miss_observer_) {
            miss_observer_(entry.pf_source == PfSource::L2
                               ? ReqType::L2Prefetch
                               : ReqType::L1Prefetch,
                           line);
        }
    }

    if (params_.verify_fill_roundtrip)
        verifyFillRoundTrip(line);

    for (const TagEntry &victim : set.insert(entry))
        handleVictim(victim, arrival);

    if (journal_ != nullptr) {
        const TagEntry *filled = set.find(line);
        const bool penal = params_.compressed && filled != nullptr &&
                           filled->segments < kSegmentsPerLine;
        const Cycle decomp_end =
            arrival + (penal ? params_.decompression_latency : 0);
        journal_->onL2Fill(line, arrival, decomp_end);
        // A prefetch fill with no coalesced waiters ends its journey
        // here: nobody will ever be granted this data.
        if (m.waiters.empty())
            journal_->onGranted(line, decomp_end);
    }

    // Grant every coalesced waiter, in arrival order.
    for (Waiter &w : m.waiters) {
        const bool penalized =
            params_.compressed &&
            set.find(line)->segments < kSegmentsPerLine;
        grant(w.cpu, line, w.exclusive, w.type,
              arrival + (penalized ? params_.decompression_latency : 0),
              penalized, w.done);
    }
}

void
L2Cache::verifyFillRoundTrip(Addr line)
{
    // BDI rides along as a second, structurally different codec: a bug
    // in the shared BitStream plumbing that FPC happens to mask still
    // gets caught here.
    static const BdiCompressor bdi;
    const LineData &data = values_.line(line);
    std::string why;
    if (!auditCompressorRoundTrip(values_.compressor(), data, why)) {
        cmpsim_panic("fill of line %#llx failed %s round-trip: %s",
                     static_cast<unsigned long long>(line),
                     values_.compressor().name().c_str(), why.c_str());
    }
    if (!auditCompressorRoundTrip(bdi, data, why)) {
        cmpsim_panic("fill of line %#llx failed bdi round-trip: %s",
                     static_cast<unsigned long long>(line), why.c_str());
    }
}

void
L2Cache::handleVictim(const TagEntry &victim, Cycle when)
{
    ++evictions_;
    bool dirty = victim.dirty;

    if (victim.owner != kNoOwner) {
        ++invalidations_sent_;
        if (!functional_mode_)
            onchip_.reserve(when, kDataBytes); // retrieve modified data
        if (l1_invalidate_ &&
            l1_invalidate_(static_cast<unsigned>(victim.owner),
                           victim.line)) {
            dirty = true;
        }
    }
    for (unsigned c = 0; c < params_.cores; ++c) {
        if (victim.hasSharer(c)) {
            ++invalidations_sent_;
            if (!functional_mode_)
                onchip_.reserve(when, kCtrlBytes);
            if (l1_invalidate_)
                l1_invalidate_(c, victim.line);
        }
    }

    if (victim.prefetch) {
        ++useless_pf_evicted_;
        traceInstant("pf.useless", when, {{"line", victim.line}});
        if (adaptive_)
            adaptive_->onUselessPrefetch();
    }

    if (dirty && !functional_mode_) {
        ++memory_writebacks_;
        memory_.writebackLine(victim.line, when);
    }
}

void
L2Cache::writeback(unsigned cpu, Addr line, Cycle when)
{
    ++l1_writebacks_;
    if (!functional_mode_)
        onchip_.reserve(when, kDataBytes);

    DecoupledSet &set = sets_[setIndex(line)];
    TagEntry *e = set.find(line);
    if (e == nullptr) {
        // The L2 copy is gone (concurrent eviction path); forward the
        // dirty data straight to memory to preserve it.
        if (!functional_mode_) {
            ++memory_writebacks_;
            memory_.writebackLine(line, when);
        }
        return;
    }
    if (e->owner != kNoOwner && static_cast<unsigned>(e->owner) == cpu)
        e->owner = kNoOwner;
    e->removeSharer(cpu);
    e->dirty = true;

    // The line's data changed; recompute its compressed footprint.
    const unsigned segs = storedSegments(line);
    if (segs != e->segments) {
        for (const TagEntry &victim : set.resize(line, segs))
            handleVictim(victim, when);
    }
}

void
L2Cache::sharerEvict(unsigned cpu, Addr line)
{
    TagEntry *e = sets_[setIndex(line)].find(line);
    if (e == nullptr)
        return;
    e->removeSharer(cpu);
    if (e->owner != kNoOwner && static_cast<unsigned>(e->owner) == cpu)
        e->owner = kNoOwner;
}

void
L2Cache::upgradeAtomic(unsigned cpu, Addr line)
{
    ++upgrade_requests_;
    TagEntry *e = sets_[setIndex(line)].find(line);
    if (e == nullptr)
        return;
    for (unsigned c = 0; c < params_.cores; ++c) {
        if (c != cpu && e->hasSharer(c)) {
            ++invalidations_sent_;
            if (l1_invalidate_)
                l1_invalidate_(c, line);
        }
    }
    e->sharers = 0;
    e->owner = static_cast<std::int8_t>(cpu);
}

bool
L2Cache::accessFunctional(unsigned cpu, Addr line, bool exclusive,
                          ReqType type)
{
    // Inclusive time: recursive prefetch fills re-enter this scope.
    CMPSIM_PROF_SCOPE("l2.functional");
    DecoupledSet &set = sets_[setIndex(line)];
    TagEntry *e = set.find(line);

    if (type == ReqType::Demand)
        ++demand_accesses_;

    if (e != nullptr) {
        if (type == ReqType::L2Prefetch) {
            ++l2pf_squashed_;
            return true;
        }
        if (type == ReqType::Demand) {
            ++demand_hits_;
            updateGcp(set, line, e->segments < kSegmentsPerLine);
            // Anchor stream-advance prefetches at the current cycle
            // (0 during warmup) so a mid-run fast-forward never
            // schedules into the past.
            if (e->prefetch)
                onPrefetchBitHit(cpu, *e, eq_.now());
        }
        e = set.touch(e);
        if (exclusive) {
            for (unsigned c = 0; c < params_.cores; ++c) {
                if (c != cpu && e->hasSharer(c) && l1_invalidate_)
                    l1_invalidate_(c, line);
            }
            if (e->owner != kNoOwner &&
                static_cast<unsigned>(e->owner) != cpu && l1_invalidate_)
                l1_invalidate_(static_cast<unsigned>(e->owner), line);
            e->sharers = 0;
            e->owner = static_cast<std::int8_t>(cpu);
        } else if (type != ReqType::L2Prefetch) {
            if (e->owner != kNoOwner &&
                static_cast<unsigned>(e->owner) != cpu) {
                if (l1_downgrade_)
                    l1_downgrade_(static_cast<unsigned>(e->owner), line);
                e->addSharer(static_cast<unsigned>(e->owner));
                e->owner = kNoOwner;
                e->dirty = true;
            }
            e->addSharer(cpu);
        }
        return true;
    }

    // Functional miss: instant fill.
    if (type == ReqType::Demand) {
        ++demand_misses_;
        if (adaptive_ && set.victimTagMatch(line) &&
            set.anyValidPrefetch()) {
            ++harmful_miss_flags_;
            adaptive_->onHarmfulPrefetch();
        }
    } else if (type == ReqType::L2Prefetch) {
        ++l2pf_issued_;
    }

    TagEntry entry;
    entry.line = line;
    entry.valid = true;
    entry.segments = static_cast<std::uint8_t>(storedSegments(line));
    entry.prefetch = type != ReqType::Demand;
    entry.pf_source = type == ReqType::L2Prefetch  ? PfSource::L2
                      : type == ReqType::L1Prefetch ? PfSource::L1
                                                    : PfSource::None;
    if (type == ReqType::Demand) {
        if (exclusive)
            entry.owner = static_cast<std::int8_t>(cpu);
        else
            entry.addSharer(cpu);
    }
    if (entry.prefetch) {
        if (entry.pf_source == PfSource::L2)
            ++pf_fills_l2_;
        else
            ++pf_fills_l1_;
    }

    if (params_.verify_fill_roundtrip)
        verifyFillRoundTrip(line);

    {
        // Victim handling with no bandwidth accounting.
        const bool saved = functional_mode_;
        functional_mode_ = true;
        for (const TagEntry &victim : set.insert(entry))
            handleVictim(victim, 0);
        functional_mode_ = saved;
    }

    if (type != ReqType::L2Prefetch) {
        StridePrefetcher *pf = prefetchers_[cpu];
        if (pf) {
            for (Addr a : pf->observeMiss(line, allowedStartup(*pf))) {
                ++l2pf_generated_;
                accessFunctional(cpu, a, false, ReqType::L2Prefetch);
            }
        }
    }
    return false;
}

std::uint64_t
L2Cache::effectiveBytes() const
{
    std::uint64_t lines = 0;
    for (const auto &set : sets_)
        lines += set.validCount();
    return lines * kLineBytes;
}

std::uint64_t
L2Cache::dataCapacityBytes() const
{
    return static_cast<std::uint64_t>(params_.sets) *
           params_.segment_budget * kSegmentBytes;
}

double
L2Cache::meanVictimTags() const
{
    std::uint64_t tags = 0;
    for (const auto &set : sets_)
        tags += set.victimTagCount();
    return static_cast<double>(tags) / static_cast<double>(sets_.size());
}

std::uint64_t
L2Cache::prefetchHits(PfSource src) const
{
    return src == PfSource::L2 ? pf_hits_l2_.value()
                               : pf_hits_l1_.value();
}

std::uint64_t
L2Cache::prefetchFills(PfSource src) const
{
    return src == PfSource::L2 ? pf_fills_l2_.value()
                               : pf_fills_l1_.value();
}

void
L2Cache::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.registerCounter(prefix + ".demand_accesses", &demand_accesses_);
    reg.registerCounter(prefix + ".demand_hits", &demand_hits_);
    reg.registerCounter(prefix + ".demand_misses", &demand_misses_);
    reg.registerCounter(prefix + ".partial_hits", &partial_hits_);
    reg.registerCounter(prefix + ".upgrades", &upgrade_requests_);
    reg.registerCounter(prefix + ".penalized_hits", &penalized_hits_);
    reg.registerCounter(prefix + ".pf_hits_l1", &pf_hits_l1_);
    reg.registerCounter(prefix + ".pf_hits_l2", &pf_hits_l2_);
    reg.registerCounter(prefix + ".pf_fills_l1", &pf_fills_l1_);
    reg.registerCounter(prefix + ".pf_fills_l2", &pf_fills_l2_);
    reg.registerCounter(prefix + ".l2pf_generated", &l2pf_generated_);
    reg.registerCounter(prefix + ".l2pf_issued", &l2pf_issued_);
    reg.registerCounter(prefix + ".l2pf_squashed", &l2pf_squashed_);
    reg.registerCounter(prefix + ".l2pf_dropped", &l2pf_dropped_);
    reg.registerCounter(prefix + ".useless_pf_evicted",
                        &useless_pf_evicted_);
    reg.registerCounter(prefix + ".harmful_miss_flags",
                        &harmful_miss_flags_);
    reg.registerCounter(prefix + ".evictions", &evictions_);
    reg.registerCounter(prefix + ".memory_writebacks",
                        &memory_writebacks_);
    reg.registerCounter(prefix + ".l1_writebacks", &l1_writebacks_);
    reg.registerCounter(prefix + ".invalidations", &invalidations_sent_);
    reg.registerCounter(prefix + ".owner_retrievals", &owner_retrievals_);
    reg.registerCounter(prefix + ".gcp_benefit_events",
                        &gcp_benefit_events_);
    reg.registerCounter(prefix + ".gcp_cost_events", &gcp_cost_events_);
    onchip_.registerStats(reg, prefix + ".onchip");
}

void
L2Cache::resetStats()
{
    demand_accesses_.reset();
    demand_hits_.reset();
    demand_misses_.reset();
    partial_hits_.reset();
    upgrade_requests_.reset();
    penalized_hits_.reset();
    pf_hits_l1_.reset();
    pf_hits_l2_.reset();
    pf_fills_l1_.reset();
    pf_fills_l2_.reset();
    l2pf_generated_.reset();
    l2pf_issued_.reset();
    l2pf_squashed_.reset();
    l2pf_dropped_.reset();
    useless_pf_evicted_.reset();
    harmful_miss_flags_.reset();
    evictions_.reset();
    memory_writebacks_.reset();
    l1_writebacks_.reset();
    invalidations_sent_.reset();
    owner_retrievals_.reset();
    gcp_benefit_events_.reset();
    gcp_cost_events_.reset();
    onchip_.resetStats();
    // Prefetches generated before the reset resolve (as issued /
    // squashed / dropped) after it; remember how many are in flight so
    // the pipeline audit's conservation equation still balances.
    l2pf_pending_at_reset_ = l2pf_in_network_;
}

void
L2Cache::registerAudits(InvariantRegistry &reg, const std::string &name)
{
    reg.add(name + ".set_integrity", [this](std::string &why) {
        for (unsigned i = 0; i < sets_.size(); ++i) {
            std::string detail;
            if (!auditDecoupledSet(sets_[i], !params_.compressed,
                                   detail)) {
                why = auditFormat("set %u: %s", i, detail.c_str());
                return false;
            }
        }
        return true;
    });

    reg.add(name + ".pf_mshr_accounting", [this](std::string &why) {
        std::uint64_t budget_sum = 0;
        for (unsigned c = 0; c < pf_outstanding_.size(); ++c) {
            if (pf_outstanding_[c] > params_.prefetch_outstanding) {
                why = auditFormat(
                    "core %u holds %u outstanding L2 prefetches, "
                    "budget %u",
                    c, pf_outstanding_[c], params_.prefetch_outstanding);
                return false;
            }
            budget_sum += pf_outstanding_[c];
        }
        std::uint64_t l2pf_mshrs = 0;
        // analyze-ok: unordered-iter integer count of matching entries; order cannot change the audit verdict
        for (const auto &[line, m] : mshrs_) {
            (void)line;
            l2pf_mshrs += m.pf_source == PfSource::L2 ? 1 : 0;
        }
        if (budget_sum != l2pf_mshrs) {
            why = auditFormat(
                "per-core outstanding-prefetch budgets sum to %llu but "
                "%llu L2-prefetch MSHRs are allocated",
                static_cast<unsigned long long>(budget_sum),
                static_cast<unsigned long long>(l2pf_mshrs));
            return false;
        }
        return true;
    });

    reg.add(name + ".demand_balance", [this](std::string &why) {
        // Demand lookups classify hit-or-miss in the same event that
        // counts the access, so this is an equality at any instant.
        const std::uint64_t resolved =
            demand_hits_.value() + demand_misses_.value();
        if (demand_accesses_.value() != resolved) {
            why = auditFormat(
                "demand_accesses %llu != demand_hits %llu + "
                "demand_misses %llu",
                static_cast<unsigned long long>(demand_accesses_.value()),
                static_cast<unsigned long long>(demand_hits_.value()),
                static_cast<unsigned long long>(demand_misses_.value()));
            return false;
        }
        return true;
    });

    reg.add(name + ".prefetch_pipeline", [this](std::string &why) {
        // Every generated L2 prefetch resolves as exactly one of
        // issued / squashed / dropped, or is still in the network.
        const std::uint64_t resolved = l2pf_issued_.value() +
                                       l2pf_squashed_.value() +
                                       l2pf_dropped_.value();
        const std::uint64_t generated =
            l2pf_generated_.value() + l2pf_pending_at_reset_;
        if (resolved + l2pf_in_network_ != generated) {
            why = auditFormat(
                "issued %llu + squashed %llu + dropped %llu + "
                "in-network %llu != generated %llu + %llu pending at "
                "reset",
                static_cast<unsigned long long>(l2pf_issued_.value()),
                static_cast<unsigned long long>(l2pf_squashed_.value()),
                static_cast<unsigned long long>(l2pf_dropped_.value()),
                static_cast<unsigned long long>(l2pf_in_network_),
                static_cast<unsigned long long>(l2pf_generated_.value()),
                static_cast<unsigned long long>(l2pf_pending_at_reset_));
            return false;
        }
        return true;
    });

    if (adaptive_ != nullptr) {
        reg.add(name + ".adaptive_feedback", [this](std::string &why) {
            // Controller events and L2 counters increment at the same
            // call sites, so each pair must agree exactly.
            const std::uint64_t hits =
                pf_hits_l1_.value() + pf_hits_l2_.value();
            if (adaptive_->usefulCount() != hits) {
                why = auditFormat(
                    "controller saw %llu useful prefetches but the L2 "
                    "counted %llu prefetch-bit hits",
                    static_cast<unsigned long long>(
                        adaptive_->usefulCount()),
                    static_cast<unsigned long long>(hits));
                return false;
            }
            if (adaptive_->uselessCount() != useless_pf_evicted_.value()) {
                why = auditFormat(
                    "controller saw %llu useless prefetches but the L2 "
                    "evicted %llu unreferenced prefetched lines",
                    static_cast<unsigned long long>(
                        adaptive_->uselessCount()),
                    static_cast<unsigned long long>(
                        useless_pf_evicted_.value()));
                return false;
            }
            if (adaptive_->harmfulCount() != harmful_miss_flags_.value()) {
                why = auditFormat(
                    "controller saw %llu harmful prefetches but the L2 "
                    "flagged %llu victim-tag misses",
                    static_cast<unsigned long long>(
                        adaptive_->harmfulCount()),
                    static_cast<unsigned long long>(
                        harmful_miss_flags_.value()));
                return false;
            }
            return true;
        });
    }
}

} // namespace cmpsim
