/**
 * @file
 * google-benchmark microbenchmarks for the simulator substrates: the
 * decoupled variable-segment set, the stride prefetcher, the event
 * kernel, the value store, the priority link, and the functional L2
 * access path that dominates warmup time.
 */

#include <benchmark/benchmark.h>

#include <queue>
#include <vector>

#include "src/cache/decoupled_set.h"
#include "src/common/random.h"
#include "src/cache/l2_cache.h"
#include "src/compression/fpc.h"
#include "src/mem/priority_link.h"
#include "src/mem/value_store.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/prefetch/stride_prefetcher.h"
#include "src/sim/event_queue.h"

namespace {

using namespace cmpsim;

/**
 * The pre-optimization event kernel, kept here as the baseline the
 * EventQueue benchmarks compare against: std::priority_queue of whole
 * events (callback inside) with either copy-on-pop (the original) or
 * move-on-pop (the first fix).
 */
template <bool MovePop>
class LegacyEventQueue
{
  public:
    using Callback = std::function<void(Cycle)>;

    Cycle now() const { return now_; }

    void
    schedule(Cycle when, Callback cb)
    {
        heap_.push(Event{when, next_seq_++, std::move(cb)});
    }

    void
    drain()
    {
        while (!heap_.empty()) {
            Event ev = MovePop
                           ? std::move(const_cast<Event &>(heap_.top()))
                           : heap_.top();
            heap_.pop();
            now_ = ev.when;
            ev.cb(ev.when);
        }
    }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;

        bool
        operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
    Cycle now_ = 0;
    std::uint64_t next_seq_ = 0;
};

/**
 * Fat capture block matching what simulator callbacks carry (this +
 * address + request metadata): pushes the std::function past the
 * small-object buffer so pop-by-copy pays a real allocation, exactly
 * as the production continuations do.
 */
struct FatPayload
{
    std::uint64_t *sink;
    std::uint64_t addr;
    std::uint64_t meta;
    std::uint64_t cycle;
};

template <typename Queue>
void
runScheduleDrainBatch(Queue &q, std::uint64_t &sink)
{
    FatPayload p{&sink, 0x1000, 7, 0};
    for (int i = 0; i < 16; ++i) {
        p.addr += 64;
        q.schedule(q.now() + 1 + (i * 7) % 13,
                   [p](Cycle) { *p.sink += p.addr + p.meta; });
    }
    q.drain();
}

void
BM_DecoupledSetInsert(benchmark::State &state)
{
    std::vector<TagEntry> tags(8);
    DecoupledSet set(tags.data(), 8, 32);
    Random rng(1);
    std::uint64_t line = 0;
    for (auto _ : state) {
        TagEntry e;
        e.line = (line++ % 64) << kLineShift;
        e.valid = true;
        e.segments = static_cast<std::uint8_t>(rng.inRange(1, 8));
        if (TagEntry *hit = set.find(e.line))
            set.touch(hit);
        else
            benchmark::DoNotOptimize(set.insert(e));
    }
}
BENCHMARK(BM_DecoupledSetInsert);

void
BM_DecoupledSetLookup(benchmark::State &state)
{
    std::vector<TagEntry> tags(8);
    DecoupledSet set(tags.data(), 8, 32);
    for (Addr a = 0; a < 6; ++a) {
        TagEntry e;
        e.line = a << kLineShift;
        e.valid = true;
        e.segments = 5;
        set.insert(e);
    }
    Addr probe = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            set.find(((probe++) % 8) << kLineShift));
    }
}
BENCHMARK(BM_DecoupledSetLookup);

// DecoupledSet::find at cache scale: 16 K compressed-L2 sets (8 tags,
// 32 segments) over one tag array, half full, probed at random lines
// with the set picked by a mask, as in the L2 lookup.
void
BM_DecoupledSetFind(benchmark::State &state)
{
    constexpr unsigned kSets = 16384;
    constexpr unsigned kTags = 8;
    std::vector<TagEntry> tags(std::size_t{kSets} * kTags);
    std::vector<DecoupledSet> sets;
    sets.reserve(kSets);
    for (unsigned i = 0; i < kSets; ++i)
        sets.emplace_back(&tags[std::size_t{i} * kTags], kTags, 32);
    Random rng(5);
    for (unsigned n = 0; n < kSets * 4; ++n) {
        TagEntry e;
        e.line = rng.below(kSets * 16) << kLineShift;
        e.valid = true;
        e.segments = 8;
        DecoupledSet &set = sets[lineNumber(e.line) & (kSets - 1)];
        if (set.find(e.line) == nullptr)
            set.insert(e);
    }
    for (auto _ : state) {
        const Addr line = rng.below(kSets * 16) << kLineShift;
        benchmark::DoNotOptimize(
            sets[lineNumber(line) & (kSets - 1)].find(line));
    }
}
BENCHMARK(BM_DecoupledSetFind);

void
BM_PrefetcherObserveMiss(benchmark::State &state)
{
    PrefetcherParams p;
    p.startup_prefetches = 25;
    StridePrefetcher pf(p);
    std::uint64_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pf.observeMiss((line++ & 0xffff) << kLineShift, 25));
    }
}
BENCHMARK(BM_PrefetcherObserveMiss);

// observeMiss over eight interleaved streams with unit strides of both
// signs and non-unit strides, plus a scattered miss every 16th call:
// each call scans the whole stream table, and the window test rejects
// most streams.
void
BM_PrefetcherObserveMissStreams(benchmark::State &state)
{
    PrefetcherParams p;
    p.startup_prefetches = 25;
    p.page_lines = 0;
    StridePrefetcher pf(p);
    constexpr std::int64_t kStrides[] = {1, -1, 3, -2, 1, -1, 5, -7};
    std::int64_t heads[8];
    for (unsigned s = 0; s < 8; ++s)
        heads[s] = (std::int64_t{1} << 30) + std::int64_t{s} * (1 << 20);
    Random rng(9);
    unsigned i = 0;
    for (auto _ : state) {
        const unsigned s = i++ & 7;
        Addr line;
        if ((i & 15) == 0) {
            line = (rng.below(1u << 28) + (1u << 29)) << kLineShift;
        } else {
            heads[s] += kStrides[s];
            line = static_cast<Addr>(heads[s]) << kLineShift;
        }
        benchmark::DoNotOptimize(pf.observeMiss(line, 25));
    }
}
BENCHMARK(BM_PrefetcherObserveMissStreams);

// ValueStore lookups in a store of 256 K lines (16 MiB of values,
// several times a host's last-level cache): hits on resident lines and
// misses on absent ones, at random.
constexpr Addr kValueLines = Addr{1} << 18;

void
fillValueStore(ValueStore &store)
{
    for (Addr n = 0; n < kValueLines; ++n)
        store.writeWord((n * 2) << kLineShift,
                        static_cast<std::uint32_t>(n));
}

void
BM_ValueStoreHit(benchmark::State &state)
{
    FpcCompressor fpc;
    ValueStore store(fpc);
    fillValueStore(store);
    Random rng(11);
    for (auto _ : state) {
        const Addr line = (rng.below(kValueLines) * 2) << kLineShift;
        benchmark::DoNotOptimize(store.hasLine(line));
    }
}
BENCHMARK(BM_ValueStoreHit);

void
BM_ValueStoreMiss(benchmark::State &state)
{
    FpcCompressor fpc;
    ValueStore store(fpc);
    fillValueStore(store);
    Random rng(13);
    for (auto _ : state) {
        const Addr line = (rng.below(kValueLines) * 2 + 1) << kLineShift;
        benchmark::DoNotOptimize(store.hasLine(line));
    }
}
BENCHMARK(BM_ValueStoreMiss);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.schedule(eq.now() + 5, [&sink](Cycle) { ++sink; });
        eq.schedule(eq.now() + 3, [&sink](Cycle) { ++sink; });
        eq.drain();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The copy-on-pop/move-on-pop/key-heap progression on the same
// schedule-then-drain workload (16 fat-capture events per iteration):
// EventQueue sifts 24-byte keys and leaves callbacks in their slots.
void
BM_EventKernelLegacyCopyPop(benchmark::State &state)
{
    LegacyEventQueue<false> eq;
    std::uint64_t sink = 0;
    for (auto _ : state)
        runScheduleDrainBatch(eq, sink);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventKernelLegacyCopyPop);

void
BM_EventKernelLegacyMovePop(benchmark::State &state)
{
    LegacyEventQueue<true> eq;
    std::uint64_t sink = 0;
    for (auto _ : state)
        runScheduleDrainBatch(eq, sink);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventKernelLegacyMovePop);

void
BM_EventKernelIntrusiveHeap(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state)
        runScheduleDrainBatch(eq, sink);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventKernelIntrusiveHeap);

// Cascading same-cycle continuations (the cache-bank -> link ->
// directory pattern): exercises the FIFO fast path that bypasses the
// heap entirely. The legacy variant pays a heap push + sift per
// continuation.
void
BM_EventKernelLegacyCascade(benchmark::State &state)
{
    LegacyEventQueue<true> eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.schedule(eq.now() + 1, [&](Cycle) {
            for (int i = 0; i < 8; ++i)
                eq.schedule(eq.now(), [&sink](Cycle) { ++sink; });
        });
        eq.drain();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventKernelLegacyCascade);

void
BM_EventQueueSameCycleCascade(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.schedule(eq.now() + 1, [&](Cycle) {
            for (int i = 0; i < 8; ++i)
                eq.schedule(eq.now(), [&sink](Cycle) { ++sink; });
        });
        eq.drain();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueSameCycleCascade);

// Burst scheduling with and without pre-sized storage: CmpSystem
// reserves cores x ROB entries up front (see CmpSystem::
// buildSystem), so the heap never reallocates mid-run. The batch is
// drained outside the reserve so growth cost recurs every iteration
// in the no-reserve variant.
void
BM_EventQueueBurstNoReserve(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < 512; ++i)
            eq.schedule(static_cast<Cycle>(1 + (i % 7)),
                        [&sink](Cycle) { ++sink; });
        eq.drain();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueBurstNoReserve);

void
BM_EventQueueBurstWithReserve(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        eq.reserve(512);
        for (int i = 0; i < 512; ++i)
            eq.schedule(static_cast<Cycle>(1 + (i % 7)),
                        [&sink](Cycle) { ++sink; });
        eq.drain();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueBurstWithReserve);

void
BM_PriorityLinkSend(benchmark::State &state)
{
    EventQueue eq;
    PriorityLink link(eq, 4.0, false);
    for (auto _ : state) {
        link.send(72, LinkClass::Demand, eq.now(), nullptr);
        link.send(72, LinkClass::Prefetch, eq.now(), nullptr);
        eq.drain();
    }
}
BENCHMARK(BM_PriorityLinkSend);

// The observability probes live permanently in the hot paths; these
// two pin down their disarmed cost (one relaxed atomic load plus a
// predictable branch — compare against BM_EventQueueScheduleRun-level
// numbers, not zero, since the loop itself isn't free).
void
BM_TraceProbeDisabled(benchmark::State &state)
{
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        traceInstant("bench.probe", ++cycle,
                     {{"line", std::uint64_t{0x1000}}});
        benchmark::DoNotOptimize(cycle);
    }
}
BENCHMARK(BM_TraceProbeDisabled);

void
BM_ProfScopeDisabled(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        CMPSIM_PROF_SCOPE("bench.prof_probe");
        benchmark::DoNotOptimize(++sink);
    }
}
BENCHMARK(BM_ProfScopeDisabled);

void
BM_L2FunctionalAccess(benchmark::State &state)
{
    EventQueue eq;
    FpcCompressor fpc;
    ValueStore values(fpc);
    MemoryParams mp;
    MainMemory mem(eq, values, mp);
    L2Params p2;
    p2.sets = 1024;
    p2.banks = 8;
    p2.cores = 1;
    L2Cache l2(eq, values, mem, p2);
    l2.setFunctionalMode(true);
    Random rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(l2.accessFunctional(
            0, (rng.below(4096)) << kLineShift, false,
            ReqType::Demand));
    }
}
BENCHMARK(BM_L2FunctionalAccess);

} // namespace

BENCHMARK_MAIN();
