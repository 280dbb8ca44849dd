#include "src/workload/synthetic_workload.h"

#include "src/sim/fault_injection.h"

namespace cmpsim {

SyntheticWorkload::SyntheticWorkload(const WorkloadParams &params,
                                     ValueStore &values, unsigned cpu,
                                     std::uint64_t seed)
    : params_(params), values_(values), value_gen_(params.values),
      cpu_(cpu),
      rng_(seed * 0x9e3779b97f4a7c15ULL + cpu * 0x100000001b3ULL + 1),
      pc_(layout::kCodeBase), streams_(params.stream_count)
{
    faultSite("workload.gen");
    cmpsim_assert(params.load_frac + params.store_frac +
                      params.branch_frac <=
                  1.0);
    cmpsim_assert(!params.stride_bytes.empty());
    cmpsim_assert(params.stream_len_min > 0 &&
                  params.stream_len_min <= params.stream_len_max);
    for (auto &s : streams_)
        resetStream(s);

    // Lay the permuted loops out past the private zipf region.
    Addr loop_base = privateBase() + params_.ws_private;
    loop_base = (loop_base + layout::kPageBytes - 1) &
                ~(layout::kPageBytes - 1);
    double total_weight = 0;
    for (const auto &spec : params_.loops)
        total_weight += spec.weight;
    double cum = 0;
    for (const auto &spec : params_.loops) {
        Loop loop;
        loop.base = loop_base;
        const auto lines =
            std::max<std::uint64_t>(spec.bytes / kLineBytes, 4);
        loop_base += lines * kLineBytes + layout::kPageBytes;
        // A Fisher-Yates shuffle of the visit order: a repeating cycle
        // with the loop's reuse distance but no stride structure at
        // all (a linked structure's pointer order).
        loop.order.resize(lines);
        for (std::uint64_t i = 0; i < lines; ++i)
            loop.order[i] = static_cast<std::uint32_t>(i);
        for (std::uint64_t i = lines - 1; i > 0; --i) {
            const auto j = rng_.below(i + 1);
            std::swap(loop.order[i], loop.order[j]);
        }
        loop.pos = rng_.below(lines);
        cum += spec.weight / total_weight;
        loop.cum_weight = cum;
        loops_.push_back(loop);
    }

    // Cores start at different code offsets (they are different
    // threads of the same program).
    pc_ = layout::kCodeBase +
          (rng_.below(params_.i_footprint / 4) * 4);
}

void
SyntheticWorkload::copyStateFrom(const SyntheticWorkload &other)
{
    cmpsim_assert(cpu_ == other.cpu_);
    cmpsim_assert(loops_.size() == other.loops_.size());
    rng_ = other.rng_;
    pc_ = other.pc_;
    repeat_line_ = other.repeat_line_;
    repeat_left_ = other.repeat_left_;
    last_was_loop_ = other.last_was_loop_;
    streams_ = other.streams_;
    recent_bases_ = other.recent_bases_;
    // Loop layout (base, order, cum_weight) is a pure function of
    // params and seed, identical across twins — only the cursors move.
    for (std::size_t i = 0; i < loops_.size(); ++i) {
        loops_[i].pos = other.loops_[i].pos;
        loops_[i].on_record = other.loops_[i].on_record;
    }
}

Addr
SyntheticWorkload::advanceLoop()
{
    cmpsim_assert(!loops_.empty());
    const double u = rng_.uniform();
    Loop *loop = &loops_.back();
    for (auto &l : loops_) {
        if (u < l.cum_weight) {
            loop = &l;
            break;
        }
    }
    if (loop->on_record == 0) {
        loop->pos = (loop->pos + 1) % loop->order.size();
        loop->on_record = params_.loop_record;
    }
    --loop->on_record;
    return loop->base + loop->order[loop->pos] * kLineBytes +
           rng_.below(kWordsPerLine) * 4;
}

Addr
SyntheticWorkload::privateBase() const
{
    return layout::kPrivateBase + cpu_ * layout::kPrivateStride;
}

void
SyntheticWorkload::touchLine(Addr addr)
{
    if (!values_.hasLine(addr))
        values_.setLine(addr, value_gen_.generate(rng_));
}

void
SyntheticWorkload::resetStream(Stream &s)
{
    const std::uint64_t region =
        params_.ws_stream > 0 ? params_.ws_stream : params_.ws_private;
    const std::uint64_t ws_lines = region / kLineBytes;
    s.stride = params_.stride_bytes[rng_.below(
        params_.stride_bytes.size())];
    const std::uint64_t len_lines =
        rng_.inRange(params_.stream_len_min, params_.stream_len_max);

    // Accesses needed to traverse len_lines lines at this stride.
    const auto abs_stride =
        static_cast<std::uint64_t>(s.stride < 0 ? -s.stride : s.stride);
    s.remaining = abs_stride >= kLineBytes
                      ? len_lines
                      : len_lines * (kLineBytes / abs_stride);

    // Leave room so the walk stays inside the private region.
    const std::uint64_t span_lines =
        len_lines * (abs_stride >= kLineBytes ? abs_stride / kLineBytes
                                              : 1) +
        2;
    const std::uint64_t max_start =
        ws_lines > span_lines ? ws_lines - span_lines : 1;

    // Re-walk a recently streamed array (a reused buffer) or pick a
    // fresh one.
    // Streams get their own region, placed beyond the loops.
    const Addr stream_base = privateBase() + 0x2000'0000ULL;
    Addr start;
    if (!recent_bases_.empty() && rng_.chance(params_.stream_reuse)) {
        start = recent_bases_[rng_.below(recent_bases_.size())];
    } else {
        start = stream_base + rng_.below(max_start) * kLineBytes;
        recent_bases_.push_back(start);
        if (recent_bases_.size() > 16)
            recent_bases_.erase(recent_bases_.begin());
    }
    if (s.stride < 0)
        start += span_lines * kLineBytes - kLineBytes;
    s.cur = start;
}

Addr
SyntheticWorkload::pickDataAddr()
{
    last_was_loop_ = false;
    // Finish the current record first (multi-word object accesses).
    if (repeat_left_ > 0) {
        --repeat_left_;
        const Addr paddr =
            repeat_line_ + rng_.below(kWordsPerLine) * 4;
        return paddr;
    }

    const double u = rng_.uniform();
    Addr vaddr;
    bool record = false;
    if (u < params_.stride_frac) {
        Stream &s = streams_[rng_.below(streams_.size())];
        if (s.remaining == 0)
            resetStream(s);
        last_was_loop_ = rng_.chance(params_.stream_chain);
        vaddr = s.cur & ~static_cast<Addr>(3);
        s.cur = static_cast<Addr>(static_cast<std::int64_t>(s.cur) +
                                  s.stride);
        --s.remaining;
    } else if (u < params_.stride_frac + params_.shared_frac) {
        const std::uint64_t lines = params_.ws_shared / kLineBytes;
        vaddr = layout::kSharedBase +
                rng_.zipf(lines, params_.zipf_s) * kLineBytes +
                rng_.below(kWordsPerLine) * 4;
        record = true;
    } else if (!loops_.empty() &&
               u < params_.stride_frac + params_.shared_frac +
                       params_.loop_frac) {
        vaddr = advanceLoop();
        last_was_loop_ = true;
    } else if (rng_.chance(params_.hot_frac)) {
        // Hot per-core structures at the front of the private region.
        const std::uint64_t lines = params_.ws_hot / kLineBytes;
        vaddr = privateBase() + rng_.zipf(lines, 0.8) * kLineBytes +
                rng_.below(kWordsPerLine) * 4;
        record = true;
    } else {
        const std::uint64_t lines = params_.ws_private / kLineBytes;
        vaddr = privateBase() +
                rng_.zipf(lines, params_.zipf_s) * kLineBytes +
                rng_.below(kWordsPerLine) * 4;
        record = true;
    }
    const Addr paddr = layout::translate(vaddr);
    touchLine(paddr);
    if (record && params_.record_accesses > 1) {
        repeat_line_ = lineAddr(paddr);
        repeat_left_ = params_.record_accesses - 1;
    }
    return paddr;
}

Instruction
SyntheticWorkload::next()
{
    Instruction in;
    in.pc = layout::translate(pc_);

    Addr next_pc = pc_ + 4;
    const double u = rng_.uniform();
    if (u < params_.branch_frac) {
        in.type = InstrType::Branch;
        in.mispredict = rng_.chance(params_.mispredict_rate);
        if (rng_.chance(params_.branch_far_frac)) {
            // Jump targets are reused (loops, hot functions).
            const std::uint64_t code_lines =
                params_.i_footprint / kLineBytes;
            next_pc = layout::kCodeBase +
                      rng_.zipf(code_lines, params_.code_zipf) *
                          kLineBytes +
                      rng_.below(kLineBytes / 4) * 4;
        }
    } else if (u < params_.branch_frac + params_.load_frac) {
        in.type = InstrType::Load;
        in.addr = pickDataAddr();
        in.chained = last_was_loop_;
    } else if (u <
               params_.branch_frac + params_.load_frac +
                   params_.store_frac) {
        in.type = InstrType::Store;
        in.addr = pickDataAddr();
        in.store_value = value_gen_.generateWord(rng_);
        in.chained = last_was_loop_;
    } else {
        in.type = InstrType::Alu;
    }

    if (next_pc >= layout::kCodeBase + params_.i_footprint)
        next_pc = layout::kCodeBase;
    pc_ = next_pc;
    return in;
}

} // namespace cmpsim
