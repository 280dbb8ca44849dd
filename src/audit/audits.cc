#include "src/audit/audits.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace cmpsim {

std::string
auditFormat(const char *fmt, ...)
{
    char buf[512];
    std::va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return std::string(buf);
}

bool
auditDecoupledSet(const DecoupledSet &set, bool require_full_charge,
                  std::string &why)
{
    const auto &entries = set.entries();
    unsigned segment_sum = 0;
    bool seen_invalid = false;

    for (unsigned i = 0; i < entries.size(); ++i) {
        const TagEntry &e = entries[i];
        if (!e.valid) {
            seen_invalid = true;
            // Victim/empty tags must carry no live line state: stale
            // directory bits here would leak into the next insert.
            if (e.dirty || e.prefetch || e.pf_source != PfSource::None ||
                e.sharers != 0 || e.owner != kNoOwner ||
                e.segments != kSegmentsPerLine) {
                why = auditFormat(
                    "invalid tag at depth %u (line %#llx) carries live "
                    "state: dirty=%d prefetch=%d sharers=%#x owner=%d "
                    "segments=%u",
                    i, static_cast<unsigned long long>(e.line), e.dirty,
                    e.prefetch, e.sharers, e.owner, e.segments);
                return false;
            }
            continue;
        }

        if (seen_invalid) {
            why = auditFormat(
                "valid line %#llx at depth %u sits behind a victim/"
                "empty tag: valid entries must form the MRU prefix",
                static_cast<unsigned long long>(e.line), i);
            return false;
        }
        if (e.line == kAddrInvalid) {
            why = auditFormat("valid entry at depth %u has no address", i);
            return false;
        }
        if (e.segments < 1 || e.segments > kSegmentsPerLine) {
            why = auditFormat(
                "line %#llx charged %u segments (legal range 1..%u)",
                static_cast<unsigned long long>(e.line), e.segments,
                kSegmentsPerLine);
            return false;
        }
        if (require_full_charge && e.segments != kSegmentsPerLine) {
            why = auditFormat(
                "uncompressed line %#llx charged %u segments, expected "
                "exactly %u",
                static_cast<unsigned long long>(e.line), e.segments,
                kSegmentsPerLine);
            return false;
        }
        for (unsigned j = 0; j < i; ++j) {
            if (entries[j].valid && entries[j].line == e.line) {
                why = auditFormat(
                    "duplicate valid line %#llx at depths %u and %u",
                    static_cast<unsigned long long>(e.line), j, i);
                return false;
            }
        }
        segment_sum += e.segments;
    }

    if (segment_sum != set.usedSegments()) {
        why = auditFormat(
            "segment accounting drift: sum over valid tags = %u but "
            "usedSegments() = %u (budget %u)",
            segment_sum, set.usedSegments(), set.segmentBudget());
        return false;
    }
    if (segment_sum > set.segmentBudget()) {
        why = auditFormat(
            "segment budget overflow: %u segments allocated, budget %u",
            segment_sum, set.segmentBudget());
        return false;
    }
    return true;
}

bool
auditCompressorRoundTrip(const Compressor &c, const LineData &line,
                         std::string &why)
{
    BitStream bits;
    const CompressedSize size = c.compress(line, &bits);
    if (size.segments < 1 || size.segments > kSegmentsPerLine) {
        why = auditFormat("%s reported %u segments (legal range 1..%u)",
                          c.name().c_str(), size.segments,
                          kSegmentsPerLine);
        return false;
    }
    const LineData back = c.decompress(bits, size);
    if (back != line) {
        unsigned first_bad = 0;
        while (first_bad < kLineBytes && back[first_bad] == line[first_bad])
            ++first_bad;
        why = auditFormat(
            "%s round-trip mismatch at byte %u: wrote %#04x, read back "
            "%#04x (%u encoded bits, %u segments)",
            c.name().c_str(), first_bad, line[first_bad], back[first_bad],
            size.bits, size.segments);
        return false;
    }
    return true;
}

bool
auditDecoupledSets(std::span<const DecoupledSet> sets,
                   bool require_full_charge, std::string &why)
{
    for (std::size_t i = 0; i < sets.size(); ++i) {
        std::string detail;
        if (!auditDecoupledSet(sets[i], require_full_charge, detail)) {
            why = auditFormat("set %zu: %s", i, detail.c_str());
            return false;
        }
    }
    return true;
}

bool
auditNoPastEvents(const EventQueue &eq, std::string &why)
{
    const Cycle next = eq.nextEventCycle();
    if (next != kCycleNever && next < eq.now()) {
        why = auditFormat("event pending at cycle %llu but now() is %llu "
                          "(%zu events queued)",
                          static_cast<unsigned long long>(next),
                          static_cast<unsigned long long>(eq.now()),
                          eq.size());
        return false;
    }
    return true;
}

bool
auditByteConservation(const PriorityLink &link, std::string &why)
{
    const std::uint64_t requested =
        link.totalBytes() + link.pendingBytesAtReset();
    const std::uint64_t accounted =
        link.deliveredBytes() + link.inflightBytes() + link.queuedBytes();
    if (requested != accounted) {
        why = auditFormat(
            "bytes requested (%llu + %llu pending at reset) != "
            "delivered %llu + in-flight %llu + queued %llu",
            static_cast<unsigned long long>(link.totalBytes()),
            static_cast<unsigned long long>(link.pendingBytesAtReset()),
            static_cast<unsigned long long>(link.deliveredBytes()),
            static_cast<unsigned long long>(link.inflightBytes()),
            static_cast<unsigned long long>(link.queuedBytes()));
        return false;
    }
    return true;
}

bool
auditBusyBytes(const BandwidthResource &bw, std::string &why)
{
    // Every reserve() adds bytes/rate to the busy accumulator, so
    // busy * rate must track total bytes up to FP rounding.
    const double expect = static_cast<double>(bw.totalBytes()) / bw.rate();
    const double tol = 1e-6 * (expect + 1.0);
    if (std::fabs(bw.busyCycles() - expect) > tol) {
        why = auditFormat("busy cycles %.6f inconsistent with %llu bytes "
                          "at %.3f B/cycle (expected %.6f)",
                          bw.busyCycles(),
                          static_cast<unsigned long long>(bw.totalBytes()),
                          bw.rate(), expect);
        return false;
    }
    return true;
}

bool
auditControllerCounts(const AdaptivePrefetchController &ctl,
                      std::uint64_t useful, std::uint64_t useless,
                      std::uint64_t harmful, std::string &why)
{
    // The controller and the cache count each event at the same call
    // site, so every pair must agree exactly.
    if (ctl.usefulCount() == useful && ctl.uselessCount() == useless &&
        ctl.harmfulCount() == harmful)
        return true;
    why = auditFormat(
        "controller counted useful %llu, useless %llu, harmful %llu; "
        "the cache counted %llu, %llu, %llu",
        static_cast<unsigned long long>(ctl.usefulCount()),
        static_cast<unsigned long long>(ctl.uselessCount()),
        static_cast<unsigned long long>(ctl.harmfulCount()),
        static_cast<unsigned long long>(useful),
        static_cast<unsigned long long>(useless),
        static_cast<unsigned long long>(harmful));
    return false;
}

} // namespace cmpsim
