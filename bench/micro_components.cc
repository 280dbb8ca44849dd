/**
 * @file
 * google-benchmark microbenchmarks for the simulator substrates: the
 * decoupled variable-segment set, the stride prefetcher, the event
 * kernel, the value store, the priority link, and the functional L2
 * access path that dominates warmup time.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "src/cache/decoupled_set.h"
#include "src/common/random.h"
#include "src/cache/l2_cache.h"
#include "src/compression/fpc.h"
#include "src/mem/priority_link.h"
#include "src/mem/value_store.h"
#include "src/obs/profiler.h"
#include "src/prefetch/stride_prefetcher.h"
#include "src/sim/event_queue.h"

namespace {

using namespace cmpsim;

/**
 * Fat capture block matching what simulator callbacks carry (this +
 * address + request metadata): 32 bytes, within EventQueue::Callback's
 * 56-byte inline buffer like every production continuation, so the
 * batch times copying closures into slots, not allocating them.
 */
struct FatPayload
{
    std::uint64_t *sink;
    std::uint64_t addr;
    std::uint64_t meta;
    std::uint64_t cycle;
};

/** Schedule 16 fat-capture events at delays @p base + 1..13, then
 *  drain them. */
void
runScheduleDrainBatch(EventQueue &q, std::uint64_t &sink, Cycle base)
{
    FatPayload p{&sink, 0x1000, 7, 0};
    for (int i = 0; i < 16; ++i) {
        p.addr += 64;
        q.schedule(q.now() + base + 1 + (i * 7) % 13,
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

// observeMiss on scattered lines, the no-match path: no stream
// covers the line and no filter entry expects it, so each call
// scans the stream table and all three filter tables, then fills an
// entry of each unit-stride table (its LRU one, once the table is
// full). The lines are drawn from a 2^28-line range, so two of them
// all but never lie within max_stride of each other and the non-unit
// table stays empty.
void
BM_PrefetcherObserveMissScattered(benchmark::State &state)
{
    PrefetcherParams p;
    p.startup_prefetches = 25;
    StridePrefetcher pf(p);
    Random rng(17);
    std::vector<Addr> lines(4096);
    for (Addr &line : lines)
        line = (rng.below(1u << 28) + (1u << 29)) << kLineShift;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pf.observeMiss(lines[i++ & (lines.size() - 1)], 25));
    }
}
BENCHMARK(BM_PrefetcherObserveMissScattered);

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

// 16 fat-capture events per iteration at delays under 64 cycles, where
// 97% of simulated delays fall: each is one append to and one pop from
// a timing-wheel bucket.
void
BM_EventQueueNearDelays(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state)
        runScheduleDrainBatch(eq, sink, 0);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueNearDelays);

// The same batch a wheel's span ahead: each event takes the overflow
// heap and migrates to its bucket when the drain reaches its window.
// No valid configuration schedules this far ahead (DESIGN §7).
void
BM_EventQueueOverflowDelays(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state)
        runScheduleDrainBatch(eq, sink, EventQueue::kWheelSlots);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueOverflowDelays);

// Cascading same-cycle continuations (the cache-bank -> link ->
// directory pattern): each appends to the bucket being drained.
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

// A burst of 512 events into a fresh queue, pre-sized as CmpSystem
// pre-sizes its queue (cores x ROB entries, see CmpSystem::
// buildSystem): each iteration times the slab's two 256-slot chunks
// being allocated, 512 schedules and the drain. Reserving buys no
// speed here: a queue left to grow allocates the same two chunks.
void
BM_EventQueueBurst(benchmark::State &state)
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
BENCHMARK(BM_EventQueueBurst);

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

// The profiler's scopes live permanently in the hot paths; this pins
// down their disarmed cost (one relaxed atomic load plus a predictable
// branch — compare against BM_EventQueueScheduleRun-level numbers, not
// zero, since the loop itself isn't free).
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
