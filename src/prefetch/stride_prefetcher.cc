#include "src/prefetch/stride_prefetcher.h"

#include <algorithm>
#include <cstdlib>

namespace cmpsim {

namespace {
constexpr unsigned kRecentMissWindow = 8;
} // namespace

StridePrefetcher::StridePrefetcher(const PrefetcherParams &params)
    : params_(params), pos_unit_(params.filter_entries),
      neg_unit_(params.filter_entries), non_unit_(params.filter_entries),
      streams_(params.stream_entries)
{
    cmpsim_assert(params.filter_entries > 0);
    cmpsim_assert(params.stream_entries > 0);
    cmpsim_assert(params.train_count >= 2);
}

StridePrefetcher::FilterEntry *
StridePrefetcher::matchFilter(FilterTable &table, std::int64_t line,
                              std::int64_t stride)
{
    for (auto &e : table) {
        const std::int64_t s = stride != 0 ? stride : e.stride;
        if (e.valid && s != 0 && e.last_line + s == line)
            return &e;
    }
    return nullptr;
}

void
StridePrefetcher::allocFilter(FilterTable &table, std::int64_t line,
                              std::int64_t stride, unsigned count)
{
    ++filter_allocs_;
    FilterEntry *victim = &table[0];
    for (auto &e : table) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    victim->valid = true;
    victim->last_line = line;
    victim->stride = stride;
    victim->count = count;
    victim->lru = tick_;
}

bool
StridePrefetcher::samePage(std::int64_t a, std::int64_t b) const
{
    if (params_.page_lines == 0)
        return true;
    return static_cast<std::uint64_t>(a) / params_.page_lines ==
           static_cast<std::uint64_t>(b) / params_.page_lines;
}

std::vector<Addr>
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

    std::vector<Addr> out;
    out.reserve(n);
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

std::vector<Addr>
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
    std::vector<Addr> out;
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

std::vector<Addr>
StridePrefetcher::observeMiss(Addr line_addr, unsigned startup_limit)
{
    ++tick_;
    const auto line = static_cast<std::int64_t>(lineNumber(line_addr));

    // A miss inside an active stream window (the prefetch was dropped
    // or already evicted): keep the stream alive and move it along.
    if (StreamEntry *s = findStream(line))
        return advanceStream(*s, line, startup_limit);

    // Positive unit stride.
    if (FilterEntry *e = matchFilter(pos_unit_, line, +1)) {
        e->last_line = line;
        e->lru = tick_;
        if (++e->count >= params_.train_count) {
            e->valid = false;
            return startup_limit ? allocStream(line, +1, startup_limit)
                                 : std::vector<Addr>{};
        }
        return {};
    }

    // Negative unit stride.
    if (FilterEntry *e = matchFilter(neg_unit_, line, -1)) {
        e->last_line = line;
        e->lru = tick_;
        if (++e->count >= params_.train_count) {
            e->valid = false;
            return startup_limit ? allocStream(line, -1, startup_limit)
                                 : std::vector<Addr>{};
        }
        return {};
    }

    // Non-unit stride (stride learned per entry).
    if (FilterEntry *e = matchFilter(non_unit_, line, 0)) {
        e->last_line = line;
        e->lru = tick_;
        if (++e->count >= params_.train_count) {
            const std::int64_t stride = e->stride;
            e->valid = false;
            return startup_limit
                       ? allocStream(line, stride, startup_limit)
                       : std::vector<Addr>{};
        }
        return {};
    }

    // No match: start tracking this miss. Unit tables learn from the
    // address alone; the non-unit table pairs it with a recent miss.
    allocFilter(pos_unit_, line, +1, 1);
    allocFilter(neg_unit_, line, -1, 1);
    for (const std::int64_t m : recent_misses_) {
        const std::int64_t d = line - m;
        if (d != 0 && std::abs(d) > 1 &&
            std::abs(d) <= params_.max_stride) {
            allocFilter(non_unit_, line, d, 2);
            break;
        }
    }
    recent_misses_.push_back(line);
    if (recent_misses_.size() > kRecentMissWindow)
        recent_misses_.pop_front();
    return {};
}

std::vector<Addr>
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
StridePrefetcher::resetStats()
{
    streams_alloc_.reset();
    generated_.reset();
    filter_allocs_.reset();
    stream_advances_.reset();
}

void
StridePrefetcher::clear()
{
    for (auto &e : pos_unit_)
        e.valid = false;
    for (auto &e : neg_unit_)
        e.valid = false;
    for (auto &e : non_unit_)
        e.valid = false;
    for (auto &s : streams_)
        s.valid = false;
    recent_misses_.clear();
}

} // namespace cmpsim
