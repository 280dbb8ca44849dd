#include "src/ckpt/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "src/cache/decoupled_set.h"
#include "src/cache/l1_cache.h"
#include "src/cache/l2_cache.h"
#include "src/common/fingerprint.h"
#include "src/common/sim_error.h"
#include "src/core/core_model.h"
#include "src/core_api/cmp_system.h"
#include "src/dram/dram_backend.h"
#include "src/mem/main_memory.h"
#include "src/mem/priority_link.h"
#include "src/mem/value_store.h"
#include "src/prefetch/adaptive_controller.h"
#include "src/prefetch/stride_prefetcher.h"
#include "src/sim/event_queue.h"

namespace cmpsim {

namespace {

void
fpInt(std::string &s, const char *key, std::uint64_t v)
{
    s += key;
    s += '=';
    s += std::to_string(v);
    s += ';';
}

void
fpDbl(std::string &s, const char *key, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    s += key;
    s += '=';
    s += buf;
    s += ';';
}

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::uint64_t
checkpointFingerprint(const SystemConfig &c, const WorkloadParams &w)
{
    std::string s;
    // Behavioural SystemConfig knobs only: watchdog_cycles never
    // changes simulated results (the watchdog only bounds livelock),
    // so a checkpoint moves freely across it. The audit and sample
    // intervals are *included*: they do not perturb results today,
    // but they gate periodic work inside the run loop and a resumed
    // run must replay the same cursor arithmetic.
    fpInt(s, "cores", c.cores);
    fpInt(s, "scale", c.scale);
    fpInt(s, "cache_compression", c.cache_compression);
    fpInt(s, "link_compression", c.link_compression);
    fpInt(s, "prefetching", c.prefetching);
    fpInt(s, "adaptive_prefetch", c.adaptive_prefetch);
    fpDbl(s, "pin_bandwidth_gbps", c.pin_bandwidth_gbps);
    fpInt(s, "infinite_bandwidth", c.infinite_bandwidth);
    fpInt(s, "seed", c.seed);
    fpInt(s, "shared_l2_prefetcher", c.shared_l2_prefetcher);
    fpInt(s, "l1_prefetch_triggers_l2", c.l1_prefetch_triggers_l2);
    fpInt(s, "extra_victim_tags", c.extra_victim_tags);
    fpInt(s, "l1_startup_prefetches", c.l1_startup_prefetches);
    fpInt(s, "l2_startup_prefetches", c.l2_startup_prefetches);
    fpInt(s, "decompression_latency", c.decompression_latency);
    fpInt(s, "adaptive_compression", c.adaptive_compression);
    fpInt(s, "wide_compressed_sets", c.wide_compressed_sets);
    fpInt(s, "audit_interval", c.audit_interval);
    fpInt(s, "audit_fill_roundtrip", c.audit_fill_roundtrip);
    fpInt(s, "sample_interval", c.sample_interval);
    const DramTimingParams &d = c.dram;
    fpInt(s, "dram.backend", static_cast<unsigned>(d.backend));
    fpInt(s, "dram.channels", d.channels);
    fpInt(s, "dram.ranks", d.ranks);
    fpInt(s, "dram.banks", d.banks);
    fpInt(s, "dram.row_bytes", d.row_bytes);
    fpInt(s, "dram.trcd", d.trcd);
    fpInt(s, "dram.tcas", d.tcas);
    fpInt(s, "dram.trp", d.trp);
    fpInt(s, "dram.tras", d.tras);
    fpInt(s, "dram.burst_bytes", d.burst_bytes);
    fpInt(s, "dram.burst_cycles", d.burst_cycles);
    fpInt(s, "dram.ctrl_latency", d.ctrl_latency);
    fpInt(s, "dram.closed_page", d.closed_page);
    fpInt(s, "dram.sched", static_cast<unsigned>(d.sched));
    fpInt(s, "dram.refresh_interval", d.refresh_interval);
    fpInt(s, "dram.refresh_cycles", d.refresh_cycles);
    fpInt(s, "dram.wq_high", d.write_high_watermark);
    fpInt(s, "dram.wq_low", d.write_low_watermark);
    // Sampling-plan knobs appended only when armed so every unsampled
    // fingerprint stays byte-identical to pre-sampling checkpoints.
    // The plan is behavioural for a sampled run: a checkpoint taken
    // mid-plan must resume under the *same* interval schedule.
    if (c.sampling.armed()) {
        fpInt(s, "sampling.ff", c.sampling.ff_per_core);
        fpInt(s, "sampling.detail", c.sampling.detail_per_core);
        fpInt(s, "sampling.n", c.sampling.max_intervals);
        fpInt(s, "sampling.warm", c.sampling.warm_per_core);
        fpDbl(s, "sampling.ci", c.sampling.ci_target_pct);
    }

    s += "workload=";
    s += w.name;
    s += ';';
    fpDbl(s, "load_frac", w.load_frac);
    fpDbl(s, "store_frac", w.store_frac);
    fpDbl(s, "branch_frac", w.branch_frac);
    fpDbl(s, "mispredict_rate", w.mispredict_rate);
    fpDbl(s, "branch_far_frac", w.branch_far_frac);
    fpInt(s, "i_footprint", w.i_footprint);
    fpInt(s, "ws_private", w.ws_private);
    fpInt(s, "ws_shared", w.ws_shared);
    fpDbl(s, "shared_frac", w.shared_frac);
    fpDbl(s, "stride_frac", w.stride_frac);
    fpDbl(s, "stream_chain", w.stream_chain);
    fpInt(s, "ws_stream", w.ws_stream);
    fpInt(s, "stream_count", w.stream_count);
    fpInt(s, "stream_len_min", w.stream_len_min);
    fpInt(s, "stream_len_max", w.stream_len_max);
    for (int b : w.stride_bytes)
        fpInt(s, "stride_byte",
              static_cast<std::uint64_t>(static_cast<std::int64_t>(b)));
    fpDbl(s, "stream_reuse", w.stream_reuse);
    fpDbl(s, "zipf_s", w.zipf_s);
    fpDbl(s, "hot_frac", w.hot_frac);
    fpInt(s, "ws_hot", w.ws_hot);
    fpDbl(s, "code_zipf", w.code_zipf);
    for (const auto &loop : w.loops) {
        fpInt(s, "loop.bytes", loop.bytes);
        fpDbl(s, "loop.weight", loop.weight);
    }
    fpDbl(s, "loop_frac", w.loop_frac);
    fpInt(s, "loop_record", w.loop_record);
    fpInt(s, "record_accesses", w.record_accesses);
    fpDbl(s, "values.zero", w.values.zero);
    fpDbl(s, "values.small_int", w.values.small_int);
    fpDbl(s, "values.repeated_byte", w.values.repeated_byte);
    fpDbl(s, "values.pointer_pair", w.values.pointer_pair);
    return fnv1a(s);
}

void
CheckpointCodec::untagged(const char *what)
{
    throw ConfigError("config.ckpt",
                      std::string("cannot checkpoint: live ") + what +
                          " closure has no continuation tag (a "
                          "scheduling site is missing its tag)");
}

// ---------------------------------------------------------------
// Continuation factory
// ---------------------------------------------------------------

std::function<void(Cycle)>
CheckpointCodec::doneFromTag(const ckpt::Tag &t)
{
    if (t == nullptr)
        return nullptr;
    switch (t->kind) {
    case ckpt::kNoop:
        return [](Cycle) {};
    case ckpt::kCoreIFetch: {
        CoreModel *core = sys_.cores_.at(t->a).get();
        return [core](Cycle c) {
            core->fetch_stall_until_ = c;
            core->wake(c);
        };
    }
    case ckpt::kCoreLoad: {
        CoreModel *core = sys_.cores_.at(t->a).get();
        const auto slot = static_cast<unsigned>(t->b);
        const std::uint64_t id = t->c;
        return [core, slot, id](Cycle c) {
            core->finishLoad(slot, id, c, false);
        };
    }
    case ckpt::kCoreStoreWake: {
        CoreModel *core = sys_.cores_.at(t->a).get();
        return [core](Cycle c) { core->wake(c); };
    }
    case ckpt::kCoreChainStore: {
        CoreModel *core = sys_.cores_.at(t->a).get();
        return [core](Cycle c) {
            core->chain_outstanding_ = false;
            core->wake(c);
            core->issueChainHead(c);
        };
    }
    case ckpt::kCoreChainLoad: {
        CoreModel *core = sys_.cores_.at(t->a).get();
        const auto slot = static_cast<unsigned>(t->b);
        const std::uint64_t id = t->c;
        return [core, slot, id](Cycle c) {
            core->finishLoad(slot, id, c, true);
        };
    }
    case ckpt::kL2Fill: {
        L2Cache *l2 = sys_.l2_.get();
        const Addr line = t->a;
        return [l2, line](Cycle arrival) { l2->fill(line, arrival); };
    }
    case ckpt::kMemReqArrived: {
        MainMemory *mem = sys_.memory_.get();
        const Addr line = t->a;
        const Cycle when = t->b;
        const auto cls = static_cast<LinkClass>(t->c);
        return [mem, line, when, cls, done = doneFromTag(t->inner),
                inner = t->inner](Cycle req_arrives) mutable {
            mem->fetchStage2(line, when, cls, std::move(done),
                             std::move(inner), req_arrives);
        };
    }
    case ckpt::kMemSendData: {
        MainMemory *mem = sys_.memory_.get();
        const Cycle when = t->a;
        const auto cls = static_cast<LinkClass>(t->b);
        const auto segments = static_cast<unsigned>(t->c);
        return [mem, when, cls, segments, done = doneFromTag(t->inner),
                inner = t->inner](Cycle dram_done) mutable {
            mem->fetchSendData(when, cls, segments, std::move(done),
                               std::move(inner), dram_done);
        };
    }
    case ckpt::kMemDataDelivered: {
        MainMemory *mem = sys_.memory_.get();
        const Cycle when = t->a;
        return [mem, when, done = doneFromTag(t->inner)](Cycle at) {
            mem->fetchDeliver(when, done, at);
        };
    }
    case ckpt::kMemDramWrite: {
        MainMemory *mem = sys_.memory_.get();
        const Addr line = t->a;
        const auto segments = static_cast<unsigned>(t->b);
        return [mem, line, segments](Cycle at) {
            mem->dram_->write(line, segments, at);
        };
    }
    default:
        throw ckpt::CorruptCheckpoint(
            "unexpected completion frame kind " +
            std::to_string(t->kind));
    }
}

std::function<void(Cycle, bool, bool)>
CheckpointCodec::l2DoneFromTag(const ckpt::Tag &t)
{
    if (t == nullptr)
        return nullptr;
    if (t->kind != ckpt::kL1Fill) {
        throw ckpt::CorruptCheckpoint(
            "unexpected L2-response frame kind " +
            std::to_string(t->kind));
    }
    const std::uint64_t id = t->a;
    const Addr line = t->b;
    const auto cpu = static_cast<unsigned>(id / 2);
    L1Cache *l1 = (id % 2 == 0 ? sys_.l1i_ : sys_.l1d_).at(cpu).get();
    return [l1, line](Cycle at, bool exclusive, bool was_compressed) {
        l1->fill(line, at, exclusive, was_compressed);
    };
}

std::function<void(Cycle)>
CheckpointCodec::eventFromTag(const ckpt::Tag &t)
{
    if (t == nullptr)
        throw ckpt::CorruptCheckpoint("event with empty tag chain");
    switch (t->kind) {
    case ckpt::kDoneAt: {
        // The event runs at its scheduled cycle (the frame's a), which
        // the queue passes to the completion directly.
        std::function<void(Cycle)> done = doneFromTag(t->inner);
        if (done == nullptr)
            return [](Cycle) {};
        return done;
    }
    case ckpt::kL2Lookup: {
        L2Cache *l2 = sys_.l2_.get();
        const auto cpu = static_cast<unsigned>(t->a);
        const Addr line = t->b;
        // t->c is the lookup's start cycle: the event's own cycle.
        const bool exclusive = (t->d & 1) != 0;
        const auto type = static_cast<ReqType>(t->d >> 1);
        return [l2, cpu, line, exclusive, type,
                done = l2DoneFromTag(t->inner),
                done_tag = t->inner](Cycle at) mutable {
            l2->lookup(cpu, line, exclusive, type, at, std::move(done),
                       std::move(done_tag));
        };
    }
    case ckpt::kLinkPump: {
        PriorityLink *link = &sys_.memory_->link();
        return [link](Cycle) { link->pump(); };
    }
    case ckpt::kLinkInflight: {
        PriorityLink *link = &sys_.memory_->link();
        const auto bytes = static_cast<unsigned>(t->a);
        return [link, deliver = doneFromTag(t->inner),
                bytes](Cycle at) mutable {
            link->completeTransfer(std::move(deliver), at, bytes);
        };
    }
    case ckpt::kDramPump: {
        DramBackend *dram = sys_.memory_->dram();
        const auto ci = static_cast<unsigned>(t->a);
        return [dram, ci](Cycle) { dram->pump(ci); };
    }
    case ckpt::kDramWriteDone: {
        DramBackend *dram = sys_.memory_->dram();
        const auto ci = static_cast<unsigned>(t->a);
        return [dram, ci](Cycle) {
            ++dram->writes_serviced_;
            ++dram->conserv_writes_out_;
            --dram->inflight_writes_;
            dram->pump(ci);
        };
    }
    case ckpt::kDramReadSvc: {
        DramBackend *dram = sys_.memory_->dram();
        const auto ci = static_cast<unsigned>(t->a);
        return [dram, ci](Cycle) {
            ++dram->reads_serviced_;
            ++dram->conserv_reads_out_;
            --dram->inflight_reads_;
            dram->pump(ci);
        };
    }
    default:
        throw ckpt::CorruptCheckpoint("unexpected event frame kind " +
                                      std::to_string(t->kind));
    }
}

// ---------------------------------------------------------------
// Shared structure helpers
// ---------------------------------------------------------------

void
CheckpointCodec::encodeSet(ckpt::Encoder &e, const DecoupledSet &set)
{
    e.u16(static_cast<std::uint16_t>(set.tagCount()));
    for (const TagEntry &t : set.entries()) {
        e.u64(t.line);
        e.boolean(t.valid);
        e.boolean(t.dirty);
        e.boolean(t.prefetch);
        e.u8(static_cast<std::uint8_t>(t.pf_source));
        e.boolean(t.was_compressed);
        e.u8(t.segments);
        e.u16(t.sharers);
        e.u8(static_cast<std::uint8_t>(t.owner));
    }
    e.u32(set.used_segments_);
}

void
CheckpointCodec::decodeSet(ckpt::Decoder &d, DecoupledSet &set)
{
    const std::uint16_t n = d.u16();
    if (n != set.tagCount()) {
        throw ckpt::CorruptCheckpoint(
            "cache set tag count mismatch: file " + std::to_string(n) +
            ", config " + std::to_string(set.tagCount()));
    }
    for (TagEntry *t = set.entries_; t != set.end(); ++t) {
        t->line = d.u64();
        t->valid = d.boolean();
        t->dirty = d.boolean();
        t->prefetch = d.boolean();
        t->pf_source = static_cast<PfSource>(d.u8());
        t->was_compressed = d.boolean();
        t->segments = d.u8();
        t->sharers = d.u16();
        t->owner = static_cast<std::int8_t>(d.u8());
    }
    set.used_segments_ = d.u32();
}

void
CheckpointCodec::encodePrefetcher(ckpt::Encoder &e,
                                  const StridePrefetcher &pf)
{
    auto table = [&e](const std::vector<StridePrefetcher::FilterEntry>
                          &entries) {
        e.u32(static_cast<std::uint32_t>(entries.size()));
        for (const auto &f : entries) {
            e.i64(f.last_line);
            e.i64(f.stride);
            e.u32(f.count);
            e.u64(f.lru);
            e.boolean(f.valid);
        }
    };
    table(pf.pos_unit_);
    table(pf.neg_unit_);
    table(pf.non_unit_);
    e.u32(static_cast<std::uint32_t>(pf.streams_.size()));
    for (const auto &s : pf.streams_) {
        e.i64(s.next_pf);
        e.i64(s.stride);
        e.i64(s.last_demand);
        e.u64(s.lru);
        e.boolean(s.valid);
    }
    e.u32(static_cast<std::uint32_t>(pf.recent_misses_.size()));
    for (std::int64_t m : pf.recent_misses_)
        e.i64(m);
    e.u64(pf.tick_);
}

void
CheckpointCodec::decodePrefetcher(ckpt::Decoder &d, StridePrefetcher &pf)
{
    auto table = [&d](std::vector<StridePrefetcher::FilterEntry>
                          &entries) {
        const std::uint32_t n = d.u32();
        if (n != entries.size()) {
            throw ckpt::CorruptCheckpoint(
                "prefetcher filter-table size mismatch");
        }
        for (auto &f : entries) {
            f.last_line = d.i64();
            f.stride = d.i64();
            f.count = d.u32();
            f.lru = d.u64();
            f.valid = d.boolean();
        }
    };
    table(pf.pos_unit_);
    table(pf.neg_unit_);
    table(pf.non_unit_);
    const std::uint32_t nstreams = d.u32();
    if (nstreams != pf.streams_.size())
        throw ckpt::CorruptCheckpoint("stream-table size mismatch");
    for (auto &s : pf.streams_) {
        s.next_pf = d.i64();
        s.stride = d.i64();
        s.last_demand = d.i64();
        s.lru = d.u64();
        s.valid = d.boolean();
    }
    pf.recent_misses_.clear();
    const std::uint32_t nmiss = d.u32();
    for (std::uint32_t i = 0; i < nmiss; ++i)
        pf.recent_misses_.push_back(d.i64());
    pf.tick_ = d.u64();
}

// ---------------------------------------------------------------
// Sections
// ---------------------------------------------------------------

std::string
CheckpointCodec::saveSystem()
{
    ckpt::Encoder e;
    e.u64(sys_.eq_.now());
    e.u64(sys_.eq_.seq_);
    const CmpSystem::RunState &rs = sys_.run_state_;
    e.boolean(rs.active);
    e.u64(rs.start);
    e.u64(rs.start_retired);
    e.u64(rs.target);
    e.u64(rs.next_sample);
    e.u64(rs.next_audit);
    e.u64(rs.next_obs);
    e.u64(rs.last_progress);
    e.u64(rs.last_retired);
    e.dbl(sys_.ratio_samples_.sum());
    e.u64(sys_.ratio_samples_.count());
    e.u64(sys_.audits_.passes_);
    e.u64(sys_.measured_cycles_);
    e.u64(sys_.measured_instructions_);
    return e.take();
}

void
CheckpointCodec::loadSystem(ckpt::Decoder &d)
{
    sys_.eq_.now_ = d.u64();
    sys_.eq_.seq_ = d.u64();
    CmpSystem::RunState &rs = sys_.run_state_;
    rs.active = d.boolean();
    rs.start = d.u64();
    rs.start_retired = d.u64();
    rs.target = d.u64();
    rs.next_sample = d.u64();
    rs.next_audit = d.u64();
    rs.next_obs = d.u64();
    rs.last_progress = d.u64();
    rs.last_retired = d.u64();
    const double ratio_sum = d.dbl();
    const std::uint64_t ratio_count = d.u64();
    sys_.ratio_samples_.restore(ratio_sum, ratio_count);
    sys_.audits_.passes_ = d.u64();
    sys_.measured_cycles_ = d.u64();
    sys_.measured_instructions_ = d.u64();
}

std::string
CheckpointCodec::saveEvents()
{
    // Pending events (heap and same-cycle FIFO both) in (when, seq)
    // order: the sort is the file format, independent of the heap's
    // internal layout, and a sorted array restores as a valid heap.
    const EventQueue &q = sys_.eq_;
    std::vector<EventQueue::Key> events(q.heap_.begin(), q.heap_.end());
    events.insert(events.end(),
                  q.same_cycle_.begin() +
                      static_cast<std::ptrdiff_t>(q.same_head_),
                  q.same_cycle_.end());
    std::sort(events.begin(), events.end(),
              [](const EventQueue::Key &a, const EventQueue::Key &b) {
                  return a.before(b);
              });
    ckpt::Encoder e;
    e.u64(events.size());
    for (const EventQueue::Key &k : events) {
        const ckpt::Tag &tag = q.pending(k.slot).tag;
        if (tag == nullptr)
            untagged("event");
        e.u64(k.when);
        e.u64(k.seq);
        e.tagChain(tag);
    }
    return e.take();
}

void
CheckpointCodec::loadEvents(ckpt::Decoder &d)
{
    // Every event restores into the heap: a (when, seq)-sorted array
    // is already a valid binary min-heap, and heap entries at now()
    // run before any same-cycle FIFO entry scheduled after restore.
    EventQueue &eq = sys_.eq_;
    eq.clearPending();
    const std::uint64_t n = d.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Cycle when = d.u64();
        const std::uint64_t seq = d.u64();
        ckpt::Tag tag = d.tagChain();
        std::function<void(Cycle)> cb = eventFromTag(tag);
        eq.heap_.push_back(EventQueue::Key{
            when, seq, eq.acquireSlot(std::move(cb), std::move(tag))});
    }
    std::sort(eq.heap_.begin(), eq.heap_.end(),
              [](const EventQueue::Key &a, const EventQueue::Key &b) {
                  return a.before(b);
              });
}

std::string
CheckpointCodec::saveStats()
{
    ckpt::Encoder e;
    const StatRegistry &reg = sys_.registry_;
    const auto counters = reg.counterNames();
    e.u32(static_cast<std::uint32_t>(counters.size()));
    for (const auto &name : counters) {
        e.str(name);
        e.u64(reg.counter(name));
    }
    const auto averages = reg.averageNames();
    e.u32(static_cast<std::uint32_t>(averages.size()));
    for (const auto &name : averages) {
        const Average &a = reg.averageStat(name);
        e.str(name);
        e.dbl(a.sum());
        e.u64(a.count());
    }
    const auto histograms = reg.histogramNames();
    e.u32(static_cast<std::uint32_t>(histograms.size()));
    for (const auto &name : histograms) {
        const Histogram &h = reg.histogram(name);
        e.str(name);
        e.u32(h.buckets());
        for (unsigned i = 0; i < h.buckets(); ++i)
            e.u64(h.bucket(i));
        e.u64(h.underflow());
        e.dbl(h.mean() * static_cast<double>(h.total())); // sum
        e.u64(h.total());
    }
    return e.take();
}

void
CheckpointCodec::loadStats(ckpt::Decoder &d)
{
    StatRegistry &reg = sys_.registry_;
    const std::uint32_t ncounters = d.u32();
    for (std::uint32_t i = 0; i < ncounters; ++i) {
        const std::string name = d.str();
        reg.restoreCounter(name, d.u64());
    }
    const std::uint32_t naverages = d.u32();
    for (std::uint32_t i = 0; i < naverages; ++i) {
        const std::string name = d.str();
        const double sum = d.dbl();
        const std::uint64_t count = d.u64();
        reg.restoreAverage(name, sum, count);
    }
    const std::uint32_t nhist = d.u32();
    for (std::uint32_t i = 0; i < nhist; ++i) {
        const std::string name = d.str();
        const std::uint32_t buckets = d.u32();
        if (buckets != reg.histogram(name).buckets()) {
            throw ckpt::CorruptCheckpoint(
                "histogram bucket-count mismatch for " + name);
        }
        std::vector<std::uint64_t> counts(buckets);
        for (auto &c : counts)
            c = d.u64();
        const std::uint64_t underflow = d.u64();
        const double sum = d.dbl();
        const std::uint64_t total = d.u64();
        reg.restoreHistogram(name, counts, underflow, sum, total);
    }
}

std::string
CheckpointCodec::saveCores()
{
    ckpt::Encoder e;
    e.u32(static_cast<std::uint32_t>(sys_.cores_.size()));
    for (const auto &cp : sys_.cores_) {
        const CoreModel &c = *cp;
        e.u32(static_cast<std::uint32_t>(c.rob_.size()));
        for (const auto &r : c.rob_) {
            e.u8(static_cast<std::uint8_t>(r.type));
            e.u64(r.done_at);
            e.u64(r.id);
        }
        e.u32(c.rob_head_);
        e.u32(c.rob_tail_);
        e.u32(c.rob_count_);
        e.u64(c.next_rob_id_);
        e.boolean(c.have_pending_);
        e.u8(static_cast<std::uint8_t>(c.pending_.type));
        e.u64(c.pending_.pc);
        e.u64(c.pending_.addr);
        e.u32(c.pending_.store_value);
        e.boolean(c.pending_.mispredict);
        e.boolean(c.pending_.chained);
        e.u32(static_cast<std::uint32_t>(c.chain_queue_.size()));
        for (const auto &a : c.chain_queue_) {
            e.u64(a.addr);
            e.boolean(a.is_write);
            e.u32(a.slot);
            e.u64(a.id);
        }
        e.boolean(c.chain_outstanding_);
        e.u64(c.last_fetch_line_);
        e.u64(c.fetch_stall_until_);
        e.u64(c.next_wake_);
    }
    return e.take();
}

void
CheckpointCodec::loadCores(ckpt::Decoder &d)
{
    const std::uint32_t n = d.u32();
    if (n != sys_.cores_.size())
        throw ckpt::CorruptCheckpoint("core count mismatch");
    for (auto &cp : sys_.cores_) {
        CoreModel &c = *cp;
        const std::uint32_t rob = d.u32();
        if (rob != c.rob_.size())
            throw ckpt::CorruptCheckpoint("ROB size mismatch");
        for (auto &r : c.rob_) {
            r.type = static_cast<InstrType>(d.u8());
            r.done_at = d.u64();
            r.id = d.u64();
        }
        c.rob_head_ = d.u32();
        c.rob_tail_ = d.u32();
        c.rob_count_ = d.u32();
        c.next_rob_id_ = d.u64();
        c.have_pending_ = d.boolean();
        c.pending_.type = static_cast<InstrType>(d.u8());
        c.pending_.pc = d.u64();
        c.pending_.addr = d.u64();
        c.pending_.store_value = d.u32();
        c.pending_.mispredict = d.boolean();
        c.pending_.chained = d.boolean();
        c.chain_queue_.clear();
        const std::uint32_t chain = d.u32();
        for (std::uint32_t i = 0; i < chain; ++i) {
            CoreModel::ChainedAccess a;
            a.addr = d.u64();
            a.is_write = d.boolean();
            a.slot = d.u32();
            a.id = d.u64();
            c.chain_queue_.push_back(a);
        }
        c.chain_outstanding_ = d.boolean();
        c.last_fetch_line_ = d.u64();
        c.fetch_stall_until_ = d.u64();
        c.next_wake_ = d.u64();
    }
}

std::string
CheckpointCodec::saveL1s()
{
    ckpt::Encoder e;
    auto one = [this, &e](const L1Cache &l1) {
        if (l1.functional_mode_) {
            throw ConfigError("config.ckpt",
                              "cannot checkpoint in functional mode");
        }
        e.u32(static_cast<std::uint32_t>(l1.sets_.size()));
        for (const auto &set : l1.sets_)
            encodeSet(e, set);
        // The MSHR file is unordered: encode busy entries by line.
        std::vector<const L1Cache::Mshr *> busy;
        for (const auto &mshr : l1.mshr_file_) {
            if (mshr.line != kAddrInvalid)
                busy.push_back(&mshr);
        }
        std::sort(busy.begin(), busy.end(),
                  [](const L1Cache::Mshr *a, const L1Cache::Mshr *b) {
                      return a->line < b->line;
                  });
        e.u32(static_cast<std::uint32_t>(busy.size()));
        for (const L1Cache::Mshr *m : busy) {
            const auto &mshr = *m;
            e.u64(mshr.line);
            e.boolean(mshr.prefetch_only);
            e.boolean(mshr.requested_exclusive);
            e.u32(static_cast<std::uint32_t>(mshr.waiters.size()));
            for (const auto &w : mshr.waiters) {
                if (w.done != nullptr && w.tag == nullptr)
                    untagged("L1 MSHR waiter");
                e.boolean(w.is_write);
                e.tagChain(w.tag);
            }
        }
    };
    for (unsigned c = 0; c < sys_.config_.cores; ++c) {
        one(*sys_.l1i_[c]);
        one(*sys_.l1d_[c]);
    }
    return e.take();
}

void
CheckpointCodec::loadL1s(ckpt::Decoder &d)
{
    auto one = [this, &d](L1Cache &l1) {
        const std::uint32_t nsets = d.u32();
        if (nsets != l1.sets_.size())
            throw ckpt::CorruptCheckpoint("L1 set count mismatch");
        for (auto &set : l1.sets_)
            decodeSet(d, set);
        for (auto &mshr : l1.mshr_file_)
            mshr = L1Cache::Mshr{};
        l1.mshrs_used_ = 0;
        const std::uint32_t nmshr = d.u32();
        if (nmshr > l1.mshr_file_.size())
            throw ckpt::CorruptCheckpoint("L1 MSHR count over capacity");
        for (std::uint32_t i = 0; i < nmshr; ++i) {
            const Addr addr = d.u64();
            if (addr == kAddrInvalid || l1.findMshr(addr) != nullptr)
                throw ckpt::CorruptCheckpoint("bad L1 MSHR line");
            L1Cache::Mshr &mshr = l1.allocMshr(addr);
            mshr.prefetch_only = d.boolean();
            mshr.requested_exclusive = d.boolean();
            const std::uint32_t nwait = d.u32();
            for (std::uint32_t w = 0; w < nwait; ++w) {
                L1Cache::Waiter waiter;
                waiter.is_write = d.boolean();
                waiter.tag = d.tagChain();
                waiter.done = doneFromTag(waiter.tag);
                mshr.waiters.push_back(std::move(waiter));
            }
        }
    };
    for (unsigned c = 0; c < sys_.config_.cores; ++c) {
        one(*sys_.l1i_[c]);
        one(*sys_.l1d_[c]);
    }
}

std::string
CheckpointCodec::saveL2()
{
    const L2Cache &l2 = *sys_.l2_;
    if (l2.functional_mode_) {
        throw ConfigError("config.ckpt",
                          "cannot checkpoint in functional mode");
    }
    ckpt::Encoder e;
    e.u32(static_cast<std::uint32_t>(l2.sets_.size()));
    for (const auto &set : l2.sets_)
        encodeSet(e, set);
    e.u32(static_cast<std::uint32_t>(l2.bank_free_.size()));
    for (Cycle c : l2.bank_free_)
        e.u64(c);
    const BandwidthResource &bw = l2.onchip_;
    e.dbl(bw.next_free_);
    e.u64(bw.total_bytes_);
    e.u64(bw.transfers_);
    e.dbl(bw.busy_);
    std::vector<Addr> keys;
    keys.reserve(l2.mshrs_.size());
    // analyze-ok: unordered-iter keys are sorted before encoding
    for (const auto &[addr, mshr] : l2.mshrs_)
        keys.push_back(addr);
    std::sort(keys.begin(), keys.end());
    e.u32(static_cast<std::uint32_t>(keys.size()));
    for (Addr addr : keys) {
        const auto &mshr = l2.mshrs_.at(addr);
        e.u64(addr);
        e.boolean(mshr.prefetch_only);
        e.u8(static_cast<std::uint8_t>(mshr.pf_source));
        e.u32(mshr.pf_cpu);
        e.u32(static_cast<std::uint32_t>(mshr.waiters.size()));
        for (const auto &w : mshr.waiters) {
            if (w.done != nullptr && w.tag == nullptr)
                untagged("L2 MSHR waiter");
            e.u32(w.cpu);
            e.boolean(w.exclusive);
            e.u8(static_cast<std::uint8_t>(w.type));
            e.tagChain(w.tag);
        }
    }
    e.u32(static_cast<std::uint32_t>(l2.pf_outstanding_.size()));
    for (unsigned v : l2.pf_outstanding_)
        e.u32(v);
    e.i64(l2.gcp_);
    e.u64(l2.l2pf_in_network_);
    e.u64(l2.l2pf_pending_at_reset_);
    return e.take();
}

void
CheckpointCodec::loadL2(ckpt::Decoder &d)
{
    L2Cache &l2 = *sys_.l2_;
    const std::uint32_t nsets = d.u32();
    if (nsets != l2.sets_.size())
        throw ckpt::CorruptCheckpoint("L2 set count mismatch");
    for (auto &set : l2.sets_)
        decodeSet(d, set);
    const std::uint32_t nbanks = d.u32();
    if (nbanks != l2.bank_free_.size())
        throw ckpt::CorruptCheckpoint("L2 bank count mismatch");
    for (auto &c : l2.bank_free_)
        c = d.u64();
    BandwidthResource &bw = l2.onchip_;
    bw.next_free_ = d.dbl();
    bw.total_bytes_ = d.u64();
    bw.transfers_ = d.u64();
    bw.busy_ = d.dbl();
    l2.mshrs_.clear();
    const std::uint32_t nmshr = d.u32();
    for (std::uint32_t i = 0; i < nmshr; ++i) {
        const Addr addr = d.u64();
        L2Cache::Mshr &mshr = l2.mshrs_[addr];
        mshr.prefetch_only = d.boolean();
        mshr.pf_source = static_cast<PfSource>(d.u8());
        mshr.pf_cpu = d.u32();
        const std::uint32_t nwait = d.u32();
        for (std::uint32_t w = 0; w < nwait; ++w) {
            L2Cache::Waiter waiter;
            waiter.cpu = d.u32();
            waiter.exclusive = d.boolean();
            waiter.type = static_cast<ReqType>(d.u8());
            waiter.tag = d.tagChain();
            waiter.done = l2DoneFromTag(waiter.tag);
            mshr.waiters.push_back(std::move(waiter));
        }
    }
    const std::uint32_t npf = d.u32();
    if (npf != l2.pf_outstanding_.size())
        throw ckpt::CorruptCheckpoint("pf_outstanding size mismatch");
    for (auto &v : l2.pf_outstanding_)
        v = d.u32();
    l2.gcp_ = d.i64();
    l2.l2pf_in_network_ = d.u64();
    l2.l2pf_pending_at_reset_ = d.u64();
}

std::string
CheckpointCodec::saveLink()
{
    const PriorityLink &link = sys_.memory_->link();
    ckpt::Encoder e;
    for (const auto &q : link.queues_) {
        e.u32(static_cast<std::uint32_t>(q.size()));
        for (const auto &m : q) {
            if (m.deliver != nullptr && m.tag == nullptr)
                untagged("link message");
            e.u32(m.bytes);
            e.u64(m.ready);
            e.tagChain(m.tag);
        }
    }
    e.boolean(link.busy_);
    e.dbl(link.cursor_);
    e.u64(link.inflight_bytes_);
    e.u64(link.pending_at_reset_);
    // delivered_bytes_ backs the byte-conservation audit but is not a
    // registered stat, so the stats section does not carry it.
    e.u64(link.delivered_bytes_.value());
    return e.take();
}

void
CheckpointCodec::loadLink(ckpt::Decoder &d)
{
    PriorityLink &link = sys_.memory_->link();
    for (auto &q : link.queues_) {
        q.clear();
        const std::uint32_t n = d.u32();
        for (std::uint32_t i = 0; i < n; ++i) {
            PriorityLink::Message m;
            m.bytes = d.u32();
            m.ready = d.u64();
            m.tag = d.tagChain();
            m.deliver = doneFromTag(m.tag);
            q.push_back(std::move(m));
        }
    }
    link.busy_ = d.boolean();
    link.cursor_ = d.dbl();
    link.inflight_bytes_ = d.u64();
    link.pending_at_reset_ = d.u64();
    link.delivered_bytes_.reset();
    link.delivered_bytes_ += d.u64();
}

std::string
CheckpointCodec::saveDram()
{
    ckpt::Encoder e;
    const DramBackend *dram = sys_.memory_->dram();
    e.boolean(dram != nullptr);
    if (dram == nullptr)
        return e.take();
    auto request = [&e](const DramBackend::Request &r) {
        if (r.done != nullptr && r.tag == nullptr)
            untagged("DRAM request");
        e.u64(r.line);
        e.u64(r.row);
        e.u32(r.bank);
        e.u32(r.beats);
        e.boolean(r.prefetch);
        e.u64(r.ready);
        e.u64(r.seq);
        e.tagChain(r.tag);
    };
    e.u32(static_cast<std::uint32_t>(dram->channels_.size()));
    for (const auto &ch : dram->channels_) {
        e.u32(static_cast<std::uint32_t>(ch.banks.size()));
        for (const auto &b : ch.banks) {
            e.boolean(b.row_open);
            e.u64(b.open_row);
            e.u64(b.ready);
            e.u64(b.activated);
            e.u64(b.pending);
        }
        e.u32(static_cast<std::uint32_t>(ch.reads.size()));
        for (const auto &r : ch.reads)
            request(r);
        e.u32(static_cast<std::uint32_t>(ch.writes.size()));
        for (const auto &r : ch.writes)
            request(r);
        e.boolean(ch.busy);
        e.boolean(ch.draining);
        e.u64(ch.next_refresh);
    }
    e.u64(dram->next_seq_);
    e.u64(dram->inflight_reads_);
    e.u64(dram->inflight_writes_);
    e.u64(dram->conserv_reads_in_);
    e.u64(dram->conserv_reads_out_);
    e.u64(dram->conserv_writes_in_);
    e.u64(dram->conserv_writes_out_);
    return e.take();
}

void
CheckpointCodec::loadDram(ckpt::Decoder &d)
{
    const bool armed = d.boolean();
    DramBackend *dram = sys_.memory_->dram();
    if (armed != (dram != nullptr)) {
        throw ckpt::CorruptCheckpoint(
            "DRAM backend mismatch between checkpoint and config");
    }
    if (dram == nullptr)
        return;
    auto request = [this, &d]() {
        DramBackend::Request r;
        r.line = d.u64();
        r.row = d.u64();
        r.bank = d.u32();
        r.beats = d.u32();
        r.prefetch = d.boolean();
        r.ready = d.u64();
        r.seq = d.u64();
        r.tag = d.tagChain();
        r.done = doneFromTag(r.tag);
        return r;
    };
    const std::uint32_t nch = d.u32();
    if (nch != dram->channels_.size())
        throw ckpt::CorruptCheckpoint("DRAM channel count mismatch");
    for (auto &ch : dram->channels_) {
        const std::uint32_t nbanks = d.u32();
        if (nbanks != ch.banks.size())
            throw ckpt::CorruptCheckpoint("DRAM bank count mismatch");
        for (auto &b : ch.banks) {
            b.row_open = d.boolean();
            b.open_row = d.u64();
            b.ready = d.u64();
            b.activated = d.u64();
            b.pending = d.u64();
        }
        ch.reads.clear();
        const std::uint32_t nreads = d.u32();
        for (std::uint32_t i = 0; i < nreads; ++i)
            ch.reads.push_back(request());
        ch.writes.clear();
        const std::uint32_t nwrites = d.u32();
        for (std::uint32_t i = 0; i < nwrites; ++i)
            ch.writes.push_back(request());
        ch.busy = d.boolean();
        ch.draining = d.boolean();
        ch.next_refresh = d.u64();
    }
    dram->next_seq_ = d.u64();
    dram->inflight_reads_ = d.u64();
    dram->inflight_writes_ = d.u64();
    dram->conserv_reads_in_ = d.u64();
    dram->conserv_reads_out_ = d.u64();
    dram->conserv_writes_in_ = d.u64();
    dram->conserv_writes_out_ = d.u64();
}

std::string
CheckpointCodec::saveValues()
{
    const ValueStore &vs = *sys_.values_;
    // Index order depends on insertion history: encode by address.
    std::vector<ValueStore::Slot> lines;
    lines.reserve(vs.lineCount());
    for (const ValueStore::Slot &s : vs.slots_) {
        if (s.line != ValueStore::kNoLine)
            lines.push_back(s);
    }
    std::sort(lines.begin(), lines.end(),
              [](const ValueStore::Slot &a, const ValueStore::Slot &b) {
                  return a.line < b.line;
              });
    ckpt::Encoder e;
    e.u64(lines.size());
    for (const ValueStore::Slot &s : lines) {
        e.u64(s.line);
        // Only the bytes: the segment-count memo is a deterministic
        // pure function of the data and recomputes identically, and
        // skipping it keeps save -> load -> save byte-stable.
        e.raw(vs.data(s.entry).data(), kLineBytes);
    }
    return e.take();
}

void
CheckpointCodec::loadValues(ckpt::Decoder &d)
{
    ValueStore &vs = *sys_.values_;
    vs.clear();
    const std::uint64_t n = d.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr addr = d.u64();
        if (addr != lineAddr(addr) || vs.hasLine(addr))
            throw ckpt::CorruptCheckpoint("bad value-store line address");
        d.raw(vs.data(vs.ensure(addr)).data(), kLineBytes);
    }
}

std::string
CheckpointCodec::savePrefetch()
{
    ckpt::Encoder e;
    e.boolean(sys_.config_.prefetching);
    if (!sys_.config_.prefetching)
        return e.take();
    for (unsigned c = 0; c < sys_.config_.cores; ++c) {
        encodePrefetcher(e, *sys_.pf_l1i_[c]);
        encodePrefetcher(e, *sys_.pf_l1d_[c]);
        e.u32(sys_.ad_l1i_[c]->counter_.value_);
        e.u32(sys_.ad_l1d_[c]->counter_.value_);
    }
    e.u32(static_cast<std::uint32_t>(sys_.pf_l2_.size()));
    for (const auto &pf : sys_.pf_l2_)
        encodePrefetcher(e, *pf);
    e.u32(sys_.l2_adaptive_->counter_.value_);
    return e.take();
}

void
CheckpointCodec::loadPrefetch(ckpt::Decoder &d)
{
    const bool enabled = d.boolean();
    if (enabled != sys_.config_.prefetching) {
        throw ckpt::CorruptCheckpoint(
            "prefetching mismatch between checkpoint and config");
    }
    if (!enabled)
        return;
    for (unsigned c = 0; c < sys_.config_.cores; ++c) {
        decodePrefetcher(d, *sys_.pf_l1i_[c]);
        decodePrefetcher(d, *sys_.pf_l1d_[c]);
        sys_.ad_l1i_[c]->counter_.value_ = d.u32();
        sys_.ad_l1d_[c]->counter_.value_ = d.u32();
    }
    const std::uint32_t engines = d.u32();
    if (engines != sys_.pf_l2_.size())
        throw ckpt::CorruptCheckpoint("L2 prefetcher count mismatch");
    for (auto &pf : sys_.pf_l2_)
        decodePrefetcher(d, *pf);
    sys_.l2_adaptive_->counter_.value_ = d.u32();
}

std::string
CheckpointCodec::saveWorkload()
{
    ckpt::Encoder e;
    e.u32(static_cast<std::uint32_t>(sys_.streams_.size()));
    for (const auto &wp : sys_.streams_) {
        const SyntheticWorkload &w = *wp;
        for (std::uint64_t word : w.rng_.state_)
            e.u64(word);
        e.u64(w.pc_);
        e.u64(w.repeat_line_);
        e.u32(w.repeat_left_);
        e.boolean(w.last_was_loop_);
        e.u32(static_cast<std::uint32_t>(w.streams_.size()));
        for (const auto &st : w.streams_) {
            e.u64(st.cur);
            e.i64(st.stride);
            e.u64(st.remaining);
        }
        e.u32(static_cast<std::uint32_t>(w.recent_bases_.size()));
        for (Addr base : w.recent_bases_)
            e.u64(base);
        // Loop layout (base, shuffled order, cum_weight) is a pure
        // function of (params, seed) and replays in the constructor;
        // only the walk cursor is state.
        e.u32(static_cast<std::uint32_t>(w.loops_.size()));
        for (const auto &loop : w.loops_) {
            e.u64(loop.pos);
            e.u32(loop.on_record);
        }
    }
    return e.take();
}

void
CheckpointCodec::loadWorkload(ckpt::Decoder &d)
{
    const std::uint32_t n = d.u32();
    if (n != sys_.streams_.size())
        throw ckpt::CorruptCheckpoint("workload stream count mismatch");
    for (auto &wp : sys_.streams_) {
        SyntheticWorkload &w = *wp;
        for (std::uint64_t &word : w.rng_.state_)
            word = d.u64();
        w.pc_ = d.u64();
        w.repeat_line_ = d.u64();
        w.repeat_left_ = d.u32();
        w.last_was_loop_ = d.boolean();
        const std::uint32_t nstreams = d.u32();
        if (nstreams != w.streams_.size())
            throw ckpt::CorruptCheckpoint("stride-stream count mismatch");
        for (auto &st : w.streams_) {
            st.cur = d.u64();
            st.stride = static_cast<int>(d.i64());
            st.remaining = d.u64();
        }
        w.recent_bases_.clear();
        const std::uint32_t nbases = d.u32();
        for (std::uint32_t i = 0; i < nbases; ++i)
            w.recent_bases_.push_back(d.u64());
        const std::uint32_t nloops = d.u32();
        if (nloops != w.loops_.size())
            throw ckpt::CorruptCheckpoint("loop count mismatch");
        for (auto &loop : w.loops_) {
            loop.pos = d.u64();
            loop.on_record = d.u32();
        }
    }
}

namespace {

/** StatSnapshot as sorted (name, value) lists — std::map iteration is
 *  ordered, so the bytes are canonical for the roundtrip audit. */
void
encodeSnapshot(ckpt::Encoder &e, const StatSnapshot &s)
{
    e.u64(s.counters.size());
    for (const auto &[name, v] : s.counters) {
        e.str(name);
        e.u64(v);
    }
    e.u64(s.averages.size());
    for (const auto &[name, a] : s.averages) {
        e.str(name);
        e.dbl(a.sum);
        e.u64(a.count);
    }
}

void
decodeSnapshot(ckpt::Decoder &d, StatSnapshot &s)
{
    s.counters.clear();
    s.averages.clear();
    const std::uint64_t ncounters = d.u64();
    for (std::uint64_t i = 0; i < ncounters; ++i) {
        const std::string name = d.str();
        s.counters[name] = d.u64();
    }
    const std::uint64_t naverages = d.u64();
    for (std::uint64_t i = 0; i < naverages; ++i) {
        const std::string name = d.str();
        StatSnapshot::Avg &a = s.averages[name];
        a.sum = d.dbl();
        a.count = d.u64();
    }
}

} // namespace

std::string
CheckpointCodec::saveSample()
{
    // Sampling-plan progress (DESIGN.md §14): the interval cursor,
    // the open interval's baseline snapshot, accumulated detail
    // deltas and per-interval metric samples. The FastForwardEngine's
    // own counters ride in the stats section; its conservation
    // accumulators deliberately restart at zero after restore (both
    // sides restart together, so the audit stays exact).
    ckpt::Encoder e;
    const SampleState &ss = sys_.sample_state_;
    e.u32(ss.intervals_done);
    e.boolean(ss.in_detail);
    e.boolean(ss.stopped_early);
    e.u64(ss.ff_instructions);
    encodeSnapshot(e, ss.baseline);
    encodeSnapshot(e, ss.detail_totals);
    e.u64(ss.samples.size());
    for (const IntervalSample &s : ss.samples) {
        e.dbl(s.cycles);
        e.dbl(s.instructions);
        e.dbl(s.ipc);
        e.dbl(s.l2_miss_rate);
        e.dbl(s.l2_mpki);
        e.dbl(s.bandwidth_gbps);
        e.dbl(s.compression_ratio);
    }
    return e.take();
}

void
CheckpointCodec::loadSample(ckpt::Decoder &d)
{
    SampleState &ss = sys_.sample_state_;
    ss.intervals_done = d.u32();
    ss.in_detail = d.boolean();
    ss.stopped_early = d.boolean();
    ss.ff_instructions = d.u64();
    decodeSnapshot(d, ss.baseline);
    decodeSnapshot(d, ss.detail_totals);
    ss.samples.clear();
    const std::uint64_t n = d.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        IntervalSample s;
        s.cycles = d.dbl();
        s.instructions = d.dbl();
        s.ipc = d.dbl();
        s.l2_miss_rate = d.dbl();
        s.l2_mpki = d.dbl();
        s.bandwidth_gbps = d.dbl();
        s.compression_ratio = d.dbl();
        ss.samples.push_back(s);
    }
}

// ---------------------------------------------------------------
// Container
// ---------------------------------------------------------------

std::string
CheckpointCodec::save()
{
    std::vector<ckpt::Section> sections;
    sections.push_back({"system", saveSystem()});
    sections.push_back({"stats", saveStats()});
    sections.push_back({"values", saveValues()});
    sections.push_back({"workload", saveWorkload()});
    sections.push_back({"cores", saveCores()});
    sections.push_back({"l1", saveL1s()});
    sections.push_back({"l2", saveL2()});
    sections.push_back({"link", saveLink()});
    sections.push_back({"dram", saveDram()});
    sections.push_back({"prefetch", savePrefetch()});
    sections.push_back({"events", saveEvents()});
    // Conditional 12th section: present only when a sampling plan is
    // armed, so unsampled checkpoints stay byte-identical to the
    // pre-sampling format.
    if (sys_.config_.sampling.armed())
        sections.push_back({"sample", saveSample()});
    return ckpt::packFile(
        checkpointFingerprint(sys_.config_, sys_.workload_), sections);
}

void
CheckpointCodec::restore(std::string_view bytes)
{
    const ckpt::ParsedFile file = ckpt::parseFile(bytes);
    const std::uint64_t want =
        checkpointFingerprint(sys_.config_, sys_.workload_);
    if (file.fingerprint != want) {
        throw ConfigError(
            "config.restore",
            "checkpoint fingerprint " + hex16(file.fingerprint) +
                " does not match this run's " + hex16(want) +
                " (different config, seed or workload)");
    }
    std::set<std::string> seen;
    for (const ckpt::Section &s : file.sections) {
        if (!seen.insert(s.name).second) {
            throw ckpt::CorruptCheckpoint("duplicate section " +
                                          s.name);
        }
        ckpt::Decoder d(s.payload);
        if (s.name == "system")
            loadSystem(d);
        else if (s.name == "stats")
            loadStats(d);
        else if (s.name == "values")
            loadValues(d);
        else if (s.name == "workload")
            loadWorkload(d);
        else if (s.name == "cores")
            loadCores(d);
        else if (s.name == "l1")
            loadL1s(d);
        else if (s.name == "l2")
            loadL2(d);
        else if (s.name == "link")
            loadLink(d);
        else if (s.name == "dram")
            loadDram(d);
        else if (s.name == "prefetch")
            loadPrefetch(d);
        else if (s.name == "events")
            loadEvents(d);
        else if (s.name == "sample" && sys_.config_.sampling.armed())
            loadSample(d);
        else
            throw ckpt::CorruptCheckpoint("unknown section " + s.name);
        d.expectEnd(s.name.c_str());
    }
    static const char *const required[] = {
        "system", "stats", "values", "workload", "cores", "l1",
        "l2",     "link",  "dram",   "prefetch", "events"};
    for (const char *name : required) {
        if (seen.count(name) == 0) {
            throw ckpt::CorruptCheckpoint(
                std::string("missing section ") + name);
        }
    }
    // The sample section is required exactly when the restoring
    // config has an armed plan (the fingerprint already guarantees
    // the saving config agreed).
    if (sys_.config_.sampling.armed() && seen.count("sample") == 0) {
        throw ckpt::CorruptCheckpoint(
            "missing section sample (sampling plan is armed)");
    }
}

} // namespace cmpsim
