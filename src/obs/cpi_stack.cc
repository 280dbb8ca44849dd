#include "src/obs/cpi_stack.h"

#include <cmath>

#include "src/common/log.h"
#include "src/obs/trace.h"

namespace cmpsim {

namespace {

/** First journey leaf (the leaf_hists_ base index). */
constexpr unsigned kFirstJourneyLeaf =
    static_cast<unsigned>(CpiLeaf::L2Service);
/** Journey leaves: L2Service..DramService, contiguous in CpiLeaf. */
constexpr unsigned kJourneyLeafCount =
    static_cast<unsigned>(CpiLeaf::DramService) - kFirstJourneyLeaf + 1;

/** Cycles [begin, end) spends inside [lo, hi). */
Cycle
overlap(Cycle begin, Cycle end, Cycle lo, Cycle hi)
{
    const Cycle a = begin > lo ? begin : lo;
    const Cycle b = end < hi ? end : hi;
    return b > a ? b - a : 0;
}

} // namespace

const char *
cpiLeafName(CpiLeaf leaf)
{
    switch (leaf) {
    case CpiLeaf::Compute:
        return "compute";
    case CpiLeaf::BranchRedirect:
        return "branch_redirect";
    case CpiLeaf::MshrFull:
        return "mshr_full";
    case CpiLeaf::L1iMiss:
        return "l1i_miss";
    case CpiLeaf::L1dService:
        return "l1d_service";
    case CpiLeaf::L2Service:
        return "l2_service";
    case CpiLeaf::LinkQueue:
        return "link_queue";
    case CpiLeaf::LinkSerialize:
        return "link_serialize";
    case CpiLeaf::Decompression:
        return "decompression";
    case CpiLeaf::DramService:
        return "dram_service";
    case CpiLeaf::PfResidue:
        return "pf_residue";
    case CpiLeaf::Count:
        break;
    }
    cmpsim_assert(false && "bad CpiLeaf");
    return "?";
}

// ---------------------------------------------------------------- journal

MissJournal::MissJournal(double link_bytes_per_cycle, bool infinite_link)
    : link_rate_(link_bytes_per_cycle), infinite_link_(infinite_link)
{
    leaf_hists_.reserve(kJourneyLeafCount);
    for (unsigned i = 0; i < kJourneyLeafCount; ++i)
        leaf_hists_.emplace_back(25.0, 40);
}

void
MissJournal::seal(MissRecord &r, CpiLeaf leaf, Cycle until)
{
    if (until > r.frontier_start) {
        r.segments.push_back({leaf, r.frontier_start, until});
        r.frontier_start = until;
    }
    r.frontier = leaf;
}

void
MissJournal::onL2Request(unsigned cpu, Addr line, bool prefetch,
                         Cycle when)
{
    auto it = records_.find(line);
    Cycle prev_pf_span = 0;
    if (it != records_.end()) {
        MissRecord &r = it->second;
        if (!r.complete) {
            // The line's journey is already in flight: this request
            // coalesces into it. A demand joining a prefetch journey
            // is the "partially hidden" case — remember when it
            // joined, so the hidden prefix (start..join) is exact.
            if (!prefetch) {
                if (r.demand_join == 0)
                    r.demand_join_when = when;
                ++r.demand_join;
            }
            return;
        }
        // A fresh journey for a line whose previous journey was a
        // pure prefetch: a demand arriving now would have stalled for
        // that journey's full span had the prefetch not run. Carry
        // the span so CpiAccount can credit it as fully hidden.
        if (!prefetch && r.prefetch_origin && r.demand_join == 0)
            prev_pf_span = r.end - r.start;
    }
    MissRecord r;
    r.line = line;
    r.start = when;
    r.cpu = cpu;
    r.prefetch_origin = prefetch;
    r.prev_pf_span = prev_pf_span;
    r.frontier = CpiLeaf::L2Service;
    r.frontier_start = when;
    r.span_id = ++next_span_id_;
    records_[line] = std::move(r);
}

void
MissJournal::onL2Hit(Addr line, Cycle lookup_done, Cycle ready,
                     bool penalized)
{
    auto it = records_.find(line);
    if (it == records_.end() || it->second.complete)
        return;
    MissRecord &r = it->second;
    r.l2_hit = true;
    r.penalized = r.penalized || penalized;
    seal(r, CpiLeaf::L2Service, lookup_done);
    if (penalized)
        seal(r, CpiLeaf::Decompression, ready);
    seal(r, CpiLeaf::L2Service, ready > lookup_done ? ready : lookup_done);
    r.frontier = CpiLeaf::L2Service;
}

void
MissJournal::onMemRead(Addr line, Cycle enq, Cycle arrive,
                       Cycle dram_done, unsigned data_segments)
{
    auto it = records_.find(line);
    if (it == records_.end() || it->second.complete)
        return;
    MissRecord &r = it->second;
    r.data_segments = data_segments;
    seal(r, CpiLeaf::L2Service, enq);
    // Split the request message's link time: the tail link_rate-paced
    // cycles are serialization, anything before is queueing behind
    // other messages (zero when the link is modeled infinite).
    Cycle ser = 0;
    if (!infinite_link_ && link_rate_ > 0.0) {
        ser = static_cast<Cycle>(
            std::ceil(kMessageHeaderBytes / link_rate_));
    }
    const Cycle span = arrive > r.frontier_start
                           ? arrive - r.frontier_start
                           : 0;
    if (ser > span)
        ser = span;
    seal(r, CpiLeaf::LinkQueue, arrive - ser);
    seal(r, CpiLeaf::LinkSerialize, arrive);
    seal(r, CpiLeaf::DramService, dram_done);
    r.frontier = CpiLeaf::LinkQueue;
}

void
MissJournal::onL2Fill(Addr line, Cycle arrival, Cycle decomp_end)
{
    auto it = records_.find(line);
    if (it == records_.end() || it->second.complete)
        return;
    MissRecord &r = it->second;
    // Split the data message's link time the same way as the request:
    // serialization is the size-class-dependent tail.
    const unsigned bytes =
        kMessageHeaderBytes + r.data_segments * kSegmentBytes;
    Cycle ser = 0;
    if (!infinite_link_ && link_rate_ > 0.0)
        ser = static_cast<Cycle>(std::ceil(bytes / link_rate_));
    const Cycle span = arrival > r.frontier_start
                           ? arrival - r.frontier_start
                           : 0;
    if (ser > span)
        ser = span;
    seal(r, CpiLeaf::LinkQueue, arrival - ser);
    seal(r, CpiLeaf::LinkSerialize, arrival);
    if (decomp_end > arrival) {
        r.penalized = true;
        seal(r, CpiLeaf::Decompression, decomp_end);
    }
    r.frontier = CpiLeaf::L2Service;
}

void
MissJournal::onGranted(Addr line, Cycle at_l1)
{
    auto it = records_.find(line);
    if (it == records_.end() || it->second.complete)
        return;
    MissRecord &r = it->second;
    seal(r, CpiLeaf::L2Service, at_l1);
    r.end = at_l1;
    r.complete = true;
    finish(r);
}

void
MissJournal::onPrefetchSquashed(Addr line, Cycle when)
{
    auto it = records_.find(line);
    if (it == records_.end())
        return;
    MissRecord &r = it->second;
    // Only a pure prefetch journey dies here; if a demand coalesced
    // into it, the demand's own lookup/fill path completes the record.
    if (r.complete || !r.prefetch_origin || r.demand_join != 0)
        return;
    seal(r, r.frontier, when);
    r.end = when > r.start ? when : r.start;
    r.complete = true;
    ++pf_squashed_;
}

void
MissJournal::finish(MissRecord &r)
{
    ++completed_;
    if (r.prefetch_origin)
        ++pf_origin_completed_;
    total_hist_.sample(static_cast<double>(r.end - r.start));

    double per_leaf[kJourneyLeafCount] = {};
    for (const MissSegment &s : r.segments) {
        const unsigned li = static_cast<unsigned>(s.leaf);
        if (li >= kFirstJourneyLeaf &&
            li < kFirstJourneyLeaf + kJourneyLeafCount) {
            per_leaf[li - kFirstJourneyLeaf] +=
                static_cast<double>(s.end - s.begin);
        }
    }
    for (unsigned i = 0; i < kJourneyLeafCount; ++i)
        leaf_hists_[i].sample(per_leaf[i]);

    if (Tracer *t = Tracer::armed()) {
        // Per-core journey track, labeled by CmpSystem's thread_name
        // metadata.
        TraceThreadScope scope(kTraceSimPid,
                               kJourneyTraceTidBase + r.cpu);
        t->asyncBegin("mem.journey", r.start, r.span_id,
                      {{"line", static_cast<std::uint64_t>(r.line)},
                       {"origin",
                        r.prefetch_origin ? "prefetch" : "demand"},
                       {"size_class",
                        static_cast<std::uint64_t>(r.data_segments)},
                       {"demand_joins",
                        static_cast<std::uint64_t>(r.demand_join)}});
        for (const MissSegment &s : r.segments) {
            t->asyncBegin(cpiLeafName(s.leaf), s.begin, r.span_id);
            t->asyncEnd(cpiLeafName(s.leaf), s.end, r.span_id);
        }
        t->asyncEnd("mem.journey", r.end, r.span_id);
    }
}

const MissRecord *
MissJournal::find(Addr line) const
{
    auto it = records_.find(line);
    return it == records_.end() ? nullptr : &it->second;
}

void
MissJournal::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.registerCounter(prefix + ".completed", &completed_);
    reg.registerCounter(prefix + ".pf_squashed", &pf_squashed_);
    reg.registerCounter(prefix + ".pf_completed", &pf_origin_completed_);
    reg.registerHistogram(prefix + ".journey_cycles", &total_hist_);
    for (unsigned i = 0; i < kJourneyLeafCount; ++i) {
        const CpiLeaf leaf =
            static_cast<CpiLeaf>(kFirstJourneyLeaf + i);
        reg.registerHistogram(prefix + ".seg_" + cpiLeafName(leaf),
                              &leaf_hists_[i]);
    }
}

// ---------------------------------------------------------------- account

CpiAccount::CpiAccount(unsigned cpu, unsigned rob_entries,
                       const MissJournal *journal)
    : cpu_(cpu), journal_(journal), load_lines_(rob_entries, 0)
{
}

void
CpiAccount::beginTick(Cycle now)
{
    close(now);
}

void
CpiAccount::flush(Cycle end)
{
    close(end);
}

void
CpiAccount::close(Cycle now)
{
    if (now <= from_)
        return;
    const Cycle n = now - from_;
    switch (pending_) {
    case CpiBlock::Compute:
        leaves_[static_cast<unsigned>(CpiLeaf::Compute)] += n;
        break;
    case CpiBlock::BranchRedirect:
        leaves_[static_cast<unsigned>(CpiLeaf::BranchRedirect)] += n;
        break;
    case CpiBlock::MshrFull:
        leaves_[static_cast<unsigned>(CpiLeaf::MshrFull)] += n;
        break;
    case CpiBlock::L1iMiss:
        leaves_[static_cast<unsigned>(CpiLeaf::L1iMiss)] += n;
        break;
    case CpiBlock::L1dMiss:
        attributeMiss(from_, now, pending_line_);
        break;
    }
    from_ = now;
}

void
CpiAccount::attributeMiss(Cycle begin, Cycle end, Addr line)
{
    const Cycle window = end - begin;
    const MissRecord *r =
        journal_ != nullptr ? journal_->find(line) : nullptr;
    if (r == nullptr) {
        // No journey on file (e.g. an L1-level chained stall): the
        // catch-all leaf keeps the sum exact.
        leaves_[static_cast<unsigned>(CpiLeaf::L1dService)] += window;
        return;
    }

    // The window that sees the journey complete settles the hidden-
    // latency credits (exactly once per journey, per blocking core).
    const bool final_window =
        r->complete && r->end > begin && r->end <= end;

    Cycle covered = 0;
    if (r->prefetch_origin) {
        // Stalling behind an in-flight prefetch: the whole in-journey
        // overlap is the prefetch residue the prefetch failed to hide.
        const Cycle jr_end = r->complete ? r->end : end;
        const Cycle res = overlap(begin, end, r->start, jr_end);
        leaves_[static_cast<unsigned>(CpiLeaf::PfResidue)] += res;
        covered = res;
        if (final_window && r->demand_join != 0 &&
            r->demand_join_when > r->start)
            pf_hidden_ += r->demand_join_when - r->start;
    } else {
        for (const MissSegment &s : r->segments) {
            const Cycle o = overlap(begin, end, s.begin, s.end);
            leaves_[static_cast<unsigned>(s.leaf)] += o;
            covered += o;
        }
        if (!r->complete) {
            const Cycle o = overlap(begin, end, r->frontier_start, end);
            leaves_[static_cast<unsigned>(r->frontier)] += o;
            covered += o;
        }
        if (final_window)
            pf_hidden_ += r->prev_pf_span;
    }
    cmpsim_assert(covered <= window);
    leaves_[static_cast<unsigned>(CpiLeaf::L1dService)] +=
        window - covered;
}

bool
CpiAccount::conserved(std::string &why) const
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < kCpiLeafCount; ++i)
        sum += leaves_[i].value();
    const std::uint64_t want = from_ - origin_;
    if (sum == want)
        return true;
    why = "cpi." + std::to_string(cpu_) + ": leaves sum to " +
          std::to_string(sum) + " but " + std::to_string(want) +
          " cycles elapsed";
    return false;
}

void
CpiAccount::registerStats(StatRegistry &reg, const std::string &prefix)
{
    for (unsigned i = 0; i < kCpiLeafCount; ++i) {
        reg.registerCounter(prefix + "." +
                                cpiLeafName(static_cast<CpiLeaf>(i)),
                            &leaves_[i]);
    }
    reg.registerCounter(prefix + ".pf_hidden", &pf_hidden_);
}

void
CpiAccount::resetStats()
{
    origin_ = from_;
}

} // namespace cmpsim
