#include "src/core_api/system_config.h"

#include <cmath>
#include <string>

#include "src/common/log.h"
#include "src/common/sim_error.h"

namespace cmpsim {

namespace {

bool
isPowerOfTwo(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

[[noreturn]] void
reject(const char *knob, const std::string &why)
{
    throw ConfigError(knob, why);
}

} // namespace

void
SystemConfig::validate() const
{
    if (cores < 1 || cores > kMaxCores) {
        reject("config.cores", "cores must be 1.." +
                                   std::to_string(kMaxCores) + ", got " +
                                   std::to_string(cores));
    }
    if (scale < 1)
        reject("config.scale", "scale must be >= 1");

    const L1Params l1 = l1Params();
    if (l1.ways == 0)
        reject("config.l1", "zero L1 ways");
    if (!isPowerOfTwo(l1.sets)) {
        reject("config.l1", "non-power-of-two L1 set count " +
                                std::to_string(l1.sets) + " (scale " +
                                std::to_string(scale) + ")");
    }
    if (l1.mshrs == 0)
        reject("config.l1", "zero L1 MSHRs");

    const L2Params l2 = l2Params();
    if (l2.tags_per_set == 0)
        reject("config.l2", "zero L2 tags per set");
    if (!isPowerOfTwo(l2.sets)) {
        reject("config.l2", "non-power-of-two L2 set count " +
                                std::to_string(l2.sets) + " (scale " +
                                std::to_string(scale) + ")");
    }
    if (!isPowerOfTwo(l2.banks))
        reject("config.l2", "L2 bank count must be a power of two");
    if (l2.segment_budget < kSegmentsPerLine) {
        reject("config.l2", "segment budget " +
                                std::to_string(l2.segment_budget) +
                                " cannot hold one uncompressed " +
                                std::to_string(kSegmentsPerLine) +
                                "-segment line");
    }

    const MemoryParams mem = memoryParams();
    if (!infinite_bandwidth) {
        if (!(pin_bandwidth_gbps > 0.0) ||
            !std::isfinite(pin_bandwidth_gbps)) {
            reject("config.bandwidth",
                   "pin bandwidth must be positive and finite");
        }
        // The derived link width must agree with the requested pin
        // rate (bytesPerCycle is the single source of truth; a zero
        // or negative width would stall every off-chip transfer).
        if (!(mem.link_bytes_per_cycle > 0.0)) {
            reject("config.link",
                   "inconsistent link width: " +
                       std::to_string(mem.link_bytes_per_cycle) +
                       " bytes/cycle derived from " +
                       std::to_string(pin_bandwidth_gbps) + " GB/s");
        }
    }

    // DRAM knobs must always be arm-able, whichever backend is
    // selected (validateDramParams throws knob-named ConfigErrors).
    validateDramParams(dram);

    if (sampling.armed()) {
        if (sampling.detail_per_core == 0) {
            reject("config.sampling",
                   "sampling plan needs detail_per_core >= 1 (a plan "
                   "of pure fast-forward measures nothing)");
        }
        if (!(sampling.ci_target_pct >= 0.0) ||
            sampling.ci_target_pct >= 100.0 ||
            !std::isfinite(sampling.ci_target_pct)) {
            reject("config.sampling",
                   "ci target must be in [0, 100) percent, got " +
                       std::to_string(sampling.ci_target_pct));
        }
        if (cpi_stack) {
            reject("config.sampling",
                   "statistical sampling cannot be combined with the "
                   "CPI-stack layer: attribution windows do not span "
                   "the fast-forward gaps between intervals");
        }
    }
}

L1Params
SystemConfig::l1Params() const
{
    L1Params p;
    // 64 KB, 4-way, 64 B lines -> 256 sets at full scale. The L1
    // shrinks at half the system scale rate: scaling it 1:1 with the
    // L2 starves it relative to real workload locality and floods the
    // L2 with accesses the paper's 64 KB L1s would have absorbed.
    p.sets = std::max(256u / std::max(1u, scale / 2), 4u);
    p.ways = 4;
    p.victim_tags = adaptive_prefetch ? extra_victim_tags : 0;
    p.hit_latency = 3;
    p.mshrs = 16;
    return p;
}

L2Params
SystemConfig::l2Params() const
{
    L2Params p;
    if (cache_compression) {
        // 4 MB of data as 16 K sets x (8 tags over 32 segments).
        p.sets = std::max(16384u / scale, 16u);
        p.tags_per_set = 8;
        p.segment_budget = wide_compressed_sets ? 64 : 32;
        p.compressed = true;
    } else {
        // Plain 4 MB 8-way: 8 K sets. Adaptive prefetching borrows
        // the compression hardware's spare tags as victim tags.
        p.sets = std::max(8192u / scale, 16u);
        p.tags_per_set = 8 + (adaptive_prefetch ? extra_victim_tags : 0);
        p.segment_budget = 64;
        p.compressed = false;
    }
    p.banks = 8;
    p.cores = cores;
    p.decompression_latency = decompression_latency;
    p.adaptive_compression = adaptive_compression;
    p.l1_prefetch_trains_l2 = l1_prefetch_triggers_l2;
    p.verify_fill_roundtrip = audit_fill_roundtrip;
    return p;
}

MemoryParams
SystemConfig::memoryParams() const
{
    MemoryParams p;
    p.dram_latency = 400;
    p.link_bytes_per_cycle = bytesPerCycle(pin_bandwidth_gbps);
    p.infinite_bandwidth = infinite_bandwidth;
    p.link_compression = link_compression;
    p.dram = dram;
    return p;
}

CoreParams
SystemConfig::coreParams() const
{
    return CoreParams{};
}

PrefetcherParams
SystemConfig::l1PrefetcherParams() const
{
    PrefetcherParams p;
    p.startup_prefetches = l1_startup_prefetches;
    return p;
}

PrefetcherParams
SystemConfig::l2PrefetcherParams() const
{
    PrefetcherParams p;
    p.startup_prefetches = l2_startup_prefetches;
    return p;
}

SystemConfig
makeConfig(unsigned cores, unsigned scale, bool cache_compression,
           bool link_compression, bool prefetching, bool adaptive,
           double pin_bandwidth_gbps)
{
    // Out-of-range values are rejected by validate() when the system
    // is built, with a catchable ConfigError instead of an assert.
    SystemConfig c;
    c.cores = cores;
    c.scale = scale;
    c.cache_compression = cache_compression;
    c.link_compression = link_compression;
    c.prefetching = prefetching;
    c.adaptive_prefetch = adaptive;
    c.pin_bandwidth_gbps = pin_bandwidth_gbps;
    // The CMPSIM_DRAM spec lands in the config itself (not applied at
    // some later layer) so batch fingerprints and journal keys see
    // the armed backend.
    applyDramEnv(c.dram);
    // Same contract for CMPSIM_SAMPLING: the plan changes measured
    // numbers, so it must land in the config that feeds fingerprints.
    applySamplingEnv(c.sampling);
    return c;
}

} // namespace cmpsim
