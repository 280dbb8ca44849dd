/**
 * @file
 * google-benchmark microbenchmarks for the compression substrate:
 * FPC compress/decompress throughput over data of varying
 * compressibility, plus word classification. These measure the
 * simulator's own hot paths (compressed-size queries dominate the
 * ValueStore memo misses).
 */

#include <benchmark/benchmark.h>

#include "src/compression/fpc.h"
#include "src/workload/value_profile.h"

namespace {

using namespace cmpsim;

LineData
lineFor(double zero_frac, std::uint64_t seed)
{
    ValueGenerator gen({zero_frac, 0.2, 0.05, 0.1});
    Random rng(seed);
    return gen.generate(rng);
}

void
BM_FpcCompress(benchmark::State &state)
{
    FpcCompressor fpc;
    const LineData line =
        lineFor(static_cast<double>(state.range(0)) / 100.0, 42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fpc.compress(line).segments);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}
BENCHMARK(BM_FpcCompress)->Arg(0)->Arg(30)->Arg(80);

void
BM_FpcRoundTrip(benchmark::State &state)
{
    FpcCompressor fpc;
    const LineData line = lineFor(0.3, 43);
    for (auto _ : state) {
        BitStream bs;
        const auto size = fpc.compress(line, &bs);
        benchmark::DoNotOptimize(fpc.decompress(bs, size));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}
BENCHMARK(BM_FpcRoundTrip);

void
BM_FpcClassify(benchmark::State &state)
{
    Random rng(45);
    std::vector<std::uint32_t> words(1024);
    for (auto &w : words)
        w = static_cast<std::uint32_t>(rng.next());
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            FpcCompressor::classify(words[i++ & 1023]));
    }
}
BENCHMARK(BM_FpcClassify);

} // namespace

BENCHMARK_MAIN();
