/**
 * @file
 * Scenario: explore how FPC compresses real bytes. Feed the
 * tool a file (it is chunked into 64-byte cache lines) or let it
 * sweep the built-in workload value profiles, and it reports the
 * segment-size histograms, compression ratios, and what that would
 * mean for the paper's compressed L2 (effective capacity) and link
 * (flits per line).
 *
 *   ./compression_explorer [path/to/file]
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/compression/fpc.h"
#include "src/workload/workload_params.h"

using namespace cmpsim;

namespace {

struct Stats
{
    std::vector<std::uint64_t> hist = std::vector<std::uint64_t>(9, 0);
    std::uint64_t lines = 0;
    std::uint64_t segments = 0;

    void
    add(unsigned segs)
    {
        ++hist[segs];
        ++lines;
        segments += segs;
    }

    double
    ratio() const
    {
        return lines == 0 ? 1.0
                          : static_cast<double>(lines) * 8.0 /
                                static_cast<double>(segments);
    }
};

void
report(const char *title, const Stats &fpc)
{
    std::printf("--- %s (%llu lines) ---\n", title,
                static_cast<unsigned long long>(fpc.lines));
    std::printf("  segments:");
    for (int s = 1; s <= 8; ++s)
        std::printf(" %d:%4.1f%%", s,
                    100.0 * static_cast<double>(fpc.hist[s]) /
                        static_cast<double>(fpc.lines));
    std::printf("  (FPC)\n");
    std::printf("  FPC ratio %.2fx\n", fpc.ratio());
    std::printf("  -> compressed L2 effective capacity ~%.1f MB of 4; "
                "link data flits/line %.1f of 8\n\n",
                std::min(8.0, 4.0 * fpc.ratio()),
                8.0 / fpc.ratio());
}

} // namespace

int
main(int argc, char **argv)
{
    FpcCompressor fpc;

    if (argc > 1) {
        std::ifstream in(argv[1], std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
        Stats sf;
        LineData line{};
        while (in.read(reinterpret_cast<char *>(line.data()),
                       kLineBytes)) {
            sf.add(fpc.compress(line).segments);
        }
        if (sf.lines == 0) {
            std::fprintf(stderr, "file shorter than one line\n");
            return 1;
        }
        report(argv[1], sf);
        return 0;
    }

    // No file: sweep the paper workloads' value profiles.
    std::printf("No file given; compressing the synthetic value "
                "profiles of the paper's workloads.\n\n");
    for (const auto &name : benchmarkNames()) {
        const auto params = benchmarkParams(name);
        ValueGenerator gen(params.values);
        Random rng(11);
        Stats sf;
        for (int i = 0; i < 4000; ++i) {
            const LineData line = gen.generate(rng);
            sf.add(fpc.compress(line).segments);
        }
        report(name.c_str(), sf);
    }
    return 0;
}
