#include "src/prefetch/stride_prefetcher.h"

#include <algorithm>
#include <bit>
#include <cstdlib>

namespace cmpsim {

namespace {
constexpr unsigned kRecentMissWindow = 8;
} // namespace

StridePrefetcher::StridePrefetcher(const PrefetcherParams &params)
    : params_(params), streams_(params.stream_entries)
{
    cmpsim_assert(params.stream_entries > 0);
    cmpsim_assert(params.train_count >= 2);
    cmpsim_assert(params.startup_prefetches <= kMaxStartupPrefetches,
                  "startup depth %u, limit %u", params.startup_prefetches,
                  kMaxStartupPrefetches);
}

void
StridePrefetcher::FilterTable::clear()
{
    next.fill(kInvalidNext);
    invalid = kAllInvalid;
    mru = kNil;
    lru = kNil;
}

int
StridePrefetcher::FilterTable::match(std::int64_t line) const
{
    // Invalid entries hold kInvalidNext, which no line number equals,
    // so the compare needs no valid bit. Two valid entries can expect
    // the same line (one line missed twice); the lowest index wins.
    // Most misses match nothing, so the scan runs to the end; the
    // unrolled form takes about half the time of the plain loop.
#pragma GCC unroll 8
    for (unsigned i = 0; i < kFilterEntries; ++i) {
        if (next[i] == line)
            return static_cast<int>(i);
    }
    return -1;
}

void
StridePrefetcher::FilterTable::unlink(unsigned i)
{
    const std::uint8_t p = prev[i];
    const std::uint8_t s = succ[i];
    (p != kNil ? succ[p] : mru) = s;
    (s != kNil ? prev[s] : lru) = p;
}

void
StridePrefetcher::FilterTable::pushMru(unsigned i)
{
    prev[i] = kNil;
    succ[i] = mru;
    (mru != kNil ? prev[mru] : lru) = static_cast<std::uint8_t>(i);
    mru = static_cast<std::uint8_t>(i);
}

void
StridePrefetcher::FilterTable::touch(unsigned i)
{
    if (i == mru)
        return;
    unlink(i);
    pushMru(i);
}

void
StridePrefetcher::FilterTable::drop(unsigned i)
{
    unlink(i);
    next[i] = kInvalidNext;
    invalid |= 1u << i;
}

void
StridePrefetcher::FilterTable::alloc(std::int64_t line,
                                     std::int64_t entry_stride,
                                     unsigned entry_count)
{
    // The lowest invalid entry, else the LRU tail: every write moves
    // its entry to the MRU end, so the tail is the entry written
    // least recently.
    unsigned i;
    if (invalid != 0) {
        i = static_cast<unsigned>(std::countr_zero(invalid));
        invalid &= invalid - 1;
    } else {
        i = lru;
        unlink(i);
    }
    next[i] = line + entry_stride;
    stride[i] = entry_stride;
    count[i] = entry_count;
    pushMru(i);
}

bool
StridePrefetcher::FilterTable::audit(std::string &why) const
{
    std::uint32_t listed = 0;
    std::uint8_t before = kNil;
    for (std::uint8_t i = mru; i != kNil; i = succ[i]) {
        if (i >= kFilterEntries) {
            why = "LRU list links to entry " + std::to_string(i);
            return false;
        }
        if ((listed >> i) & 1) {
            why = "LRU list revisits entry " + std::to_string(i);
            return false;
        }
        if (prev[i] != before) {
            why = "entry " + std::to_string(i) + " has prev " +
                  std::to_string(prev[i]) + ", list order gives " +
                  std::to_string(before);
            return false;
        }
        listed |= 1u << i;
        before = i;
    }
    if (lru != before) {
        why = "lru is entry " + std::to_string(lru) +
              ", the list ends at " + std::to_string(before);
        return false;
    }
    if ((listed & invalid) != 0 || (listed | invalid) != kAllInvalid) {
        why = "LRU list and invalid mask do not partition the entries";
        return false;
    }
    for (unsigned i = 0; i < kFilterEntries; ++i) {
        if (((invalid >> i) & 1) != (next[i] == kInvalidNext)) {
            why = "entry " + std::to_string(i) +
                  ((invalid >> i) & 1 ? " is invalid without"
                                      : " is valid with") +
                  " the invalid next-line sentinel";
            return false;
        }
    }
    return true;
}

bool
StridePrefetcher::auditFilters(std::string &why) const
{
    static constexpr const char *kNames[] = {"+1", "-1", "non-unit"};
    for (unsigned t = 0; t < filters_.size(); ++t) {
        if (!filters_[t].audit(why)) {
            why = std::string(kNames[t]) + " filter table: " + why;
            return false;
        }
    }
    return true;
}

void
StridePrefetcher::allocFilter(FilterTable &table, std::int64_t line,
                              std::int64_t stride, unsigned count)
{
    ++filter_allocs_;
    table.alloc(line, stride, count);
}

bool
StridePrefetcher::samePage(std::int64_t a, std::int64_t b) const
{
    if (params_.page_lines == 0)
        return true;
    return static_cast<std::uint64_t>(a) / params_.page_lines ==
           static_cast<std::uint64_t>(b) / params_.page_lines;
}

StridePrefetcher::Prefetches
StridePrefetcher::allocStream(std::int64_t line, std::int64_t stride,
                              unsigned startup_limit)
{
    const unsigned n =
        std::min(params_.startup_prefetches, startup_limit);
    if (n == 0)
        return {};

    StreamEntry *victim = &streams_[0];
    for (auto &s : streams_) {
        if (!s.valid) {
            victim = &s;
            break;
        }
        if (s.lru < victim->lru)
            victim = &s;
    }

    ++streams_alloc_;
    victim->valid = true;
    victim->stride = stride;
    victim->lru = tick_;

    Prefetches out;
    for (unsigned i = 1; i <= n; ++i) {
        const std::int64_t l = line + stride * static_cast<int>(i);
        if (l < 0 || !samePage(line, l))
            break;
        out.push_back(static_cast<Addr>(l) << kLineShift);
    }
    generated_ += out.size();

    victim->last_demand = line;
    victim->next_pf = line + stride * static_cast<int>(n) + stride;
    return out;
}

bool
StridePrefetcher::streamCovers(std::int64_t last_demand,
                               std::int64_t next_pf, std::int64_t stride,
                               std::int64_t line)
{
    // A line belongs to a stream only if it lies on the stride
    // lattice between the demand head and the prefetch head — the
    // region the stream has actually prefetched. (An unbounded
    // window would let unrelated hot-region misses "advance" streams
    // and run them away from the demand stream.) That is
    // 1 <= delta / stride <= span / stride with delta a multiple of
    // stride, i.e. delta lies strictly past the demand head and no
    // further than the prefetch head, on the stride's side. Those
    // compares reject almost every stream; only a non-unit stride
    // still needs the lattice test.
    const std::int64_t delta = line - last_demand;
    const std::int64_t span = next_pf - last_demand;
    if (stride > 0 ? (delta <= 0 || delta > span)
                   : (delta >= 0 || delta < span))
        return false;
    return stride == 1 || stride == -1 || delta % stride == 0;
}

StridePrefetcher::StreamEntry *
StridePrefetcher::findStream(std::int64_t line)
{
    for (auto &s : streams_) {
        if (s.valid &&
            streamCovers(s.last_demand, s.next_pf, s.stride, line))
            return &s;
    }
    return nullptr;
}

StridePrefetcher::Prefetches
StridePrefetcher::advanceStream(StreamEntry &stream, std::int64_t line,
                                unsigned startup_limit)
{
    stream.lru = tick_;
    // The demand head has reached `line`.
    if ((line - stream.last_demand) * (stream.stride > 0 ? 1 : -1) > 0)
        stream.last_demand = line;
    if (startup_limit == 0)
        return {};
    if (stream.next_pf < 0) {
        stream.valid = false;
        return {};
    }
    ++stream_advances_;
    Prefetches out;
    // The demand head moved; keep the prefetch head a bounded
    // distance in front of it (the startup depth), as the Power4
    // ramping scheme does.
    const std::int64_t ahead =
        (stream.next_pf - stream.last_demand) / stream.stride;
    if (ahead <= static_cast<std::int64_t>(startup_limit) &&
        samePage(stream.last_demand, stream.next_pf)) {
        ++generated_;
        out.push_back(static_cast<Addr>(stream.next_pf) << kLineShift);
        stream.next_pf += stream.stride;
    }
    return out;
}

StridePrefetcher::Prefetches
StridePrefetcher::observeMiss(Addr line_addr, unsigned startup_limit)
{
    ++tick_;
    const auto line = static_cast<std::int64_t>(lineNumber(line_addr));

    // A miss inside an active stream window (the prefetch was dropped
    // or already evicted): keep the stream alive and move it along.
    if (StreamEntry *s = findStream(line))
        return advanceStream(*s, line, startup_limit);

    // Train the first table (+1, -1, then non-unit stride) that
    // expects this line.
    for (FilterTable &t : filters_) {
        const int i = t.match(line);
        if (i < 0)
            continue;
        if (++t.count[i] < params_.train_count) {
            t.next[i] = line + t.stride[i];
            t.touch(static_cast<unsigned>(i));
            return {};
        }
        const std::int64_t stride = t.stride[i];
        t.drop(static_cast<unsigned>(i));
        return startup_limit ? allocStream(line, stride, startup_limit)
                             : Prefetches{};
    }

    // No match: start tracking this miss. Unit tables learn from the
    // address alone; the non-unit table pairs it with a recent miss.
    allocFilter(filters_[kPosUnit], line, +1, 1);
    allocFilter(filters_[kNegUnit], line, -1, 1);
    for (std::size_t i = 0; i < recent_misses_.size(); ++i) {
        const std::int64_t d = line - recent_misses_[i];
        if (d != 0 && std::abs(d) > 1 &&
            std::abs(d) <= params_.max_stride) {
            allocFilter(filters_[kNonUnit], line, d, 2);
            break;
        }
    }
    recent_misses_.push_back(line);
    if (recent_misses_.size() > kRecentMissWindow)
        recent_misses_.pop_front();
    return {};
}

StridePrefetcher::Prefetches
StridePrefetcher::observeUse(Addr line_addr, unsigned startup_limit)
{
    ++tick_;
    const auto line = static_cast<std::int64_t>(lineNumber(line_addr));
    if (StreamEntry *s = findStream(line))
        return advanceStream(*s, line, startup_limit);
    return {};
}

void
StridePrefetcher::registerStats(StatRegistry &reg,
                                const std::string &prefix)
{
    reg.registerCounter(prefix + ".streams", &streams_alloc_);
    reg.registerCounter(prefix + ".generated", &generated_);
    reg.registerCounter(prefix + ".filter_allocs", &filter_allocs_);
    reg.registerCounter(prefix + ".advances", &stream_advances_);
}

void
StridePrefetcher::clear()
{
    for (FilterTable &t : filters_)
        t.clear();
    for (auto &s : streams_)
        s.valid = false;
    recent_misses_.clear();
}

} // namespace cmpsim
