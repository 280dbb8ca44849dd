#include "src/cache/l1_cache.h"

#include <algorithm>
#include <utility>

#include "src/audit/audits.h"

namespace cmpsim {

L1Cache::L1Cache(EventQueue &eq, L2Cache &l2, unsigned cpu,
                 const L1Params &params)
    : eq_(eq), l2_(l2), cpu_(cpu), params_(params),
      set_mask_(params.sets - 1),
      tags_(std::size_t{params.sets} * (params.ways + params.victim_tags)),
      mshr_file_(params.mshrs)
{
    cmpsim_assert(params.sets > 0 && params.ways > 0);
    cmpsim_assert((params.sets & (params.sets - 1)) == 0,
                  "L1 set count %u is not a power of two", params.sets);
    cmpsim_assert(params.mshrs > params.prefetch_headroom);
    const unsigned tags = params.ways + params.victim_tags;
    sets_.reserve(params.sets);
    for (unsigned i = 0; i < params.sets; ++i) {
        sets_.emplace_back(&tags_[std::size_t{i} * tags], tags,
                           params.ways * kSegmentsPerLine);
    }
}

unsigned
L1Cache::allowedStartup() const
{
    if (!prefetcher_)
        return 0;
    const unsigned max = prefetcher_->params().startup_prefetches;
    return adaptive_ ? std::min(adaptive_->allowedStartup(), max) : max;
}

bool
L1Cache::canAccept(Addr addr) const
{
    return mshrs_used_ < params_.mshrs ||
           findMshr(lineAddr(addr)) != nullptr;
}

L1Cache::Mshr &
L1Cache::allocMshr(Addr line)
{
    for (Mshr &m : mshr_file_) {
        if (m.line == kAddrInvalid) {
            m.line = line;
            ++mshrs_used_;
            return m;
        }
    }
    cmpsim_panic("L1 MSHR file full (%u entries)", params_.mshrs);
}

void
L1Cache::onPrefetchBitHit(TagEntry &e, Cycle when)
{
    e.prefetch = false;
    e.pf_source = PfSource::None;
    ++pf_hits_;
    if (e.was_compressed)
        ++decomp_avoided_; // L1 prefetch hid an L2 decompression penalty
    if (adaptive_)
        adaptive_->onUsefulPrefetch();
    if (prefetcher_) {
        for (Addr a : prefetcher_->observeUse(e.line, allowedStartup()))
            prefetchLine(a, when);
    }
}

void
L1Cache::access(Addr addr, bool is_write, Cycle when, Done done)
{
    cmpsim_assert(canAccept(addr));
    const Addr line = lineAddr(addr);
    DecoupledSet &set = sets_[setIndex(line)];
    TagEntry *e = set.find(line);
    ++accesses_;

    if (e != nullptr) {
        if (e->prefetch)
            onPrefetchBitHit(*e, when);
        e = set.touch(e);
        if (!is_write || e->dirty) {
            // Plain hit (read, or write to an M line).
            ++hits_;
            eq_.schedule(when + params_.hit_latency, std::move(done));
            return;
        }
        // Write to an S line: upgrade through the directory.
        ++upgrades_;
        demandMiss(line, true, /*upgrade=*/true,
                   when + params_.hit_latency, std::move(done));
        return;
    }

    ++misses_;

    // Harmful-prefetch probe on the victim tags (Section 3).
    if (adaptive_ && set.victimTagMatch(line) && set.anyValidPrefetch()) {
        ++harmful_miss_flags_;
        adaptive_->onHarmfulPrefetch();
    }

    // Train the stride prefetcher on the demand miss stream.
    if (prefetcher_) {
        for (Addr a : prefetcher_->observeMiss(line, allowedStartup()))
            prefetchLine(a, when);
    }

    demandMiss(line, is_write, /*upgrade=*/false,
               when + params_.hit_latency, std::move(done));
}

void
L1Cache::demandMiss(Addr line, bool is_write, bool upgrade, Cycle when,
                    Done done)
{
    (void)upgrade;
    if (Mshr *m = findMshr(line)) {
        if (m->prefetch_only)
            ++partial_hits_;
        m->prefetch_only = false;
        m->waiters.push_back(Waiter{is_write, std::move(done)});
        return;
    }

    Mshr &m = allocMshr(line);
    m.prefetch_only = false;
    m.requested_exclusive = is_write;
    m.waiters.push_back(Waiter{is_write, std::move(done)});

    requestFromL2(line, is_write, ReqType::Demand, when);
}

void
L1Cache::prefetchLine(Addr line, Cycle when)
{
    cmpsim_assert(line == lineAddr(line));
    if (sets_[setIndex(line)].find(line) != nullptr ||
        findMshr(line) != nullptr) {
        ++pf_squashed_;
        return;
    }
    if (mshrs_used_ + params_.prefetch_headroom >= params_.mshrs) {
        ++pf_dropped_;
        return;
    }
    ++pf_issued_;
    Mshr &m = allocMshr(line);
    m.prefetch_only = true;
    m.requested_exclusive = false;
    requestFromL2(line, false, ReqType::L1Prefetch, when);
}

void
L1Cache::requestFromL2(Addr line, bool is_write, ReqType type, Cycle when)
{
    l2_.request(cpu_, line, is_write, type, when,
                [this, line](Cycle at, bool excl, bool comp) {
                    fill(line, at, excl, comp);
                });
}

void
L1Cache::fill(Addr line, Cycle at, bool exclusive, bool was_compressed)
{
    Mshr *slot = findMshr(line);
    cmpsim_assert(slot != nullptr);
    Mshr m = std::move(*slot);
    slot->line = kAddrInvalid;
    slot->waiters.clear();
    --mshrs_used_;

    DecoupledSet &set = sets_[setIndex(line)];
    TagEntry *e = set.find(line);
    if (e == nullptr) {
        TagEntry entry;
        entry.line = line;
        entry.valid = true;
        entry.dirty = exclusive; // store misses install in M
        entry.prefetch = m.prefetch_only;
        entry.pf_source = m.prefetch_only ? PfSource::L1 : PfSource::None;
        entry.was_compressed = was_compressed;
        for (const TagEntry &victim : set.insert(entry))
            handleVictim(victim, at);
        e = set.find(line);
    } else {
        e->dirty = e->dirty || exclusive;
    }

    if (m.prefetch_only)
        ++pf_fills_;

    // A write waiter that coalesced after a shared request still needs
    // store permission: fix the directory state atomically.
    bool any_write = false;
    for (const Waiter &w : m.waiters)
        any_write |= w.is_write;
    if (any_write && !exclusive) {
        l2_.upgradeAtomic(cpu_, line);
        e->dirty = true;
    }

    for (Waiter &w : m.waiters) {
        // Completion happens at data arrival; schedule rather than
        // call so the core sees a consistent event time.
        eq_.schedule(at, std::move(w.done));
    }
}

void
L1Cache::handleVictim(const TagEntry &victim, Cycle when)
{
    if (victim.prefetch) {
        ++pf_useless_evicted_;
        if (adaptive_)
            adaptive_->onUselessPrefetch();
    }
    if (victim.dirty) {
        ++writebacks_;
        // In functional mode the L2 has been switched functional too,
        // so this charges no bandwidth.
        l2_.writeback(cpu_, victim.line, when);
    } else {
        l2_.sharerEvict(cpu_, victim.line);
    }
}

bool
L1Cache::invalidateLine(Addr line)
{
    ++invalidations_received_;
    const TagEntry prior = sets_[setIndex(line)].invalidate(line);
    return prior.valid && prior.dirty;
}

void
L1Cache::downgradeLine(Addr line)
{
    TagEntry *e = sets_[setIndex(line)].find(line);
    if (e != nullptr)
        e->dirty = false;
}

bool
L1Cache::accessFunctional(Addr addr, bool is_write)
{
    const bool l2_mode = l2_.functionalMode();
    l2_.setFunctionalMode(true);
    const bool hit = accessFunctionalImpl(addr, is_write);
    l2_.setFunctionalMode(l2_mode);
    return hit;
}

bool
L1Cache::accessFunctionalImpl(Addr addr, bool is_write)
{
    const Addr line = lineAddr(addr);
    DecoupledSet &set = sets_[setIndex(line)];
    TagEntry *e = set.find(line);
    ++accesses_;

    if (e != nullptr) {
        if (e->prefetch) {
            // Stream-advance prefetches issued here take the timed
            // path; anchor them at the current cycle (0 during warmup)
            // so a mid-run fast-forward never schedules into the past.
            onPrefetchBitHit(*e, eq_.now());
        }
        e = set.touch(e);
        if (is_write && !e->dirty) {
            ++upgrades_;
            l2_.accessFunctional(cpu_, line, true, ReqType::Demand);
            e = set.find(line); // L2-side upgrades never evict L1 lines
            cmpsim_assert(e != nullptr);
            e->dirty = true;
        }
        ++hits_;
        return true;
    }

    ++misses_;
    if (adaptive_ && set.victimTagMatch(line) && set.anyValidPrefetch()) {
        ++harmful_miss_flags_;
        adaptive_->onHarmfulPrefetch();
    }

    std::vector<Addr> to_prefetch;
    if (prefetcher_)
        to_prefetch = prefetcher_->observeMiss(line, allowedStartup());

    l2_.accessFunctional(cpu_, line, is_write, ReqType::Demand);

    TagEntry entry;
    entry.line = line;
    entry.valid = true;
    entry.dirty = is_write;
    functional_mode_ = true;
    for (const TagEntry &victim : set.insert(entry))
        handleVictim(victim, 0);
    functional_mode_ = false;

    // Functional prefetches: instant fills with the prefetch bit set.
    for (Addr a : to_prefetch) {
        if (sets_[setIndex(a)].find(a) != nullptr) {
            ++pf_squashed_;
            continue;
        }
        ++pf_issued_;
        ++pf_fills_;
        const bool l2_hit =
            l2_.accessFunctional(cpu_, a, false, ReqType::L1Prefetch);
        (void)l2_hit;
        TagEntry pf;
        pf.line = a;
        pf.valid = true;
        pf.prefetch = true;
        pf.pf_source = PfSource::L1;
        functional_mode_ = true;
        for (const TagEntry &victim : sets_[setIndex(a)].insert(pf))
            handleVictim(victim, 0);
        functional_mode_ = false;
    }
    return false;
}

void
L1Cache::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.registerCounter(prefix + ".accesses", &accesses_);
    reg.registerCounter(prefix + ".hits", &hits_);
    reg.registerCounter(prefix + ".misses", &misses_);
    reg.registerCounter(prefix + ".upgrades", &upgrades_);
    reg.registerCounter(prefix + ".writebacks", &writebacks_);
    reg.registerCounter(prefix + ".pf_issued", &pf_issued_);
    reg.registerCounter(prefix + ".pf_fills", &pf_fills_);
    reg.registerCounter(prefix + ".pf_hits", &pf_hits_);
    reg.registerCounter(prefix + ".pf_squashed", &pf_squashed_);
    reg.registerCounter(prefix + ".pf_dropped", &pf_dropped_);
    reg.registerCounter(prefix + ".pf_useless_evicted",
                        &pf_useless_evicted_);
    reg.registerCounter(prefix + ".harmful_miss_flags",
                        &harmful_miss_flags_);
    reg.registerCounter(prefix + ".partial_hits", &partial_hits_);
    reg.registerCounter(prefix + ".invalidations_received",
                        &invalidations_received_);
    reg.registerCounter(prefix + ".decomp_avoided", &decomp_avoided_);
}

void
L1Cache::resetStats()
{
    accesses_.reset();
    hits_.reset();
    misses_.reset();
    upgrades_.reset();
    writebacks_.reset();
    pf_issued_.reset();
    pf_fills_.reset();
    pf_hits_.reset();
    pf_squashed_.reset();
    pf_dropped_.reset();
    pf_useless_evicted_.reset();
    harmful_miss_flags_.reset();
    partial_hits_.reset();
    invalidations_received_.reset();
    decomp_avoided_.reset();
}

void
L1Cache::registerAudits(InvariantRegistry &reg, const std::string &name)
{
    reg.add(name + ".set_integrity", [this](std::string &why) {
        for (unsigned i = 0; i < sets_.size(); ++i) {
            std::string detail;
            if (!auditDecoupledSet(sets_[i],
                                   /*require_full_charge=*/true,
                                   detail)) {
                why = auditFormat("set %u: %s", i, detail.c_str());
                return false;
            }
        }
        return true;
    });

    reg.add(name + ".mshr_limit", [this](std::string &why) {
        unsigned busy = 0;
        for (const Mshr &m : mshr_file_)
            busy += m.line != kAddrInvalid;
        if (busy != mshrs_used_ || busy > params_.mshrs) {
            why = auditFormat("%u MSHRs allocated (counter %u), limit %u",
                              busy, mshrs_used_, params_.mshrs);
            return false;
        }
        return true;
    });

    reg.add(name + ".access_balance", [this](std::string &why) {
        // A timed access resolves as exactly one of hit / miss /
        // upgrade; the functional path counts an upgrade as a hit as
        // well, hence the band rather than an equality.
        const std::uint64_t lo = hits_.value() + misses_.value();
        const std::uint64_t hi = lo + upgrades_.value();
        if (accesses_.value() < lo || accesses_.value() > hi) {
            why = auditFormat(
                "accesses %llu outside [hits %llu + misses %llu, "
                "+ upgrades %llu]",
                static_cast<unsigned long long>(accesses_.value()),
                static_cast<unsigned long long>(hits_.value()),
                static_cast<unsigned long long>(misses_.value()),
                static_cast<unsigned long long>(upgrades_.value()));
            return false;
        }
        return true;
    });

    if (adaptive_ != nullptr) {
        reg.add(name + ".adaptive_feedback", [this](std::string &why) {
            if (adaptive_->usefulCount() != pf_hits_.value() ||
                adaptive_->uselessCount() !=
                    pf_useless_evicted_.value() ||
                adaptive_->harmfulCount() !=
                    harmful_miss_flags_.value()) {
                why = auditFormat(
                    "controller (useful %llu, useless %llu, harmful "
                    "%llu) disagrees with cache (pf_hits %llu, "
                    "pf_useless_evicted %llu, harmful_miss_flags %llu)",
                    static_cast<unsigned long long>(
                        adaptive_->usefulCount()),
                    static_cast<unsigned long long>(
                        adaptive_->uselessCount()),
                    static_cast<unsigned long long>(
                        adaptive_->harmfulCount()),
                    static_cast<unsigned long long>(pf_hits_.value()),
                    static_cast<unsigned long long>(
                        pf_useless_evicted_.value()),
                    static_cast<unsigned long long>(
                        harmful_miss_flags_.value()));
                return false;
            }
            return true;
        });
    }
}

} // namespace cmpsim
