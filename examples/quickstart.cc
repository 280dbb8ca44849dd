/**
 * @file
 * Quickstart: build the paper's 8-core CMP with compression and
 * adaptive prefetching, run the zeus workload, and print the headline
 * numbers. This is the smallest complete use of the cmpsim public
 * API (CmpSystem + SystemConfig + the workload registry + the
 * experiment layer's metrics).
 *
 *   ./quickstart [workload] [scale]
 */

#include <cstdio>
#include <cstdlib>

#include "src/core_api/experiment.h"

using namespace cmpsim;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "zeus";
    const unsigned scale =
        argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 4;

    // Two systems: the base machine and the paper's full proposal
    // (cache + link compression with adaptive prefetching).
    SystemConfig base_cfg =
        makeConfig(8, scale, false, false, false, false);
    SystemConfig full_cfg = makeConfig(8, scale, true, true, true, true);
    base_cfg.validate(); // scale 0 throws here, not in the L2 size below

    std::printf("cmpsim quickstart: %s on an 8-core CMP (scale %u -> "
                "%llu KB L2)\n\n",
                workload.c_str(), scale,
                static_cast<unsigned long long>(
                    base_cfg.l2Params().dataCapacityBytes() / 1024));

    const RunLengths lengths{300000, 40000};
    CmpSystem base(base_cfg, benchmarkParams(workload));
    const RunResult b = warmupAndMeasure(base, lengths);

    CmpSystem full(full_cfg, benchmarkParams(workload));
    const RunResult f = warmupAndMeasure(full, lengths);

    auto report = [](const char *name, const RunResult &r) {
        std::printf("%-22s %10.0f cycles, IPC %.2f, %.1f GB/s off-chip"
                    ", L2 misses %.0f\n",
                    name, r.cycles, r.ipc, r.bandwidth_gbps,
                    r.l2_demand_misses);
    };
    report("base system:", b);
    report("compression+adaptive:", f);

    const double gain = speedup(b.cycles, f.cycles);
    std::printf("\nspeedup: %.2fx (%+.1f%%)\n", gain, (gain - 1) * 100);
    std::printf("L2 compression ratio: %.2f\n", f.compression_ratio);
    std::printf("adaptive L2 startup budget ended at %u of 25\n",
                full.l2Adaptive().counterValue());
    return 0;
}
