/**
 * @file
 * Configuration of the banked DRAM timing model (DESIGN.md §10).
 *
 * The paper's memory interface is a single 400-cycle constant behind
 * the pin link; that is still the default backend (Fixed) and the one
 * validated against the paper's figures. The Banked backend replaces
 * the constant with channels x ranks x banks of row-buffer state and
 * DDR-style timing so the memory-side interactions the paper studies
 * — prefetch streams hitting open rows, compressed messages shrinking
 * burst counts, writeback drains stealing read slots — have the
 * degrees of freedom that produce them on real hardware.
 *
 * All timings are in 5 GHz core cycles (1 ns = 5 cycles). The
 * defaults approximate a DDR2-era part as seen from the paper's chip:
 * tRCD/tCAS/tRP of 12 ns, tRAS of 32 ns, a 4 KB row buffer, and a
 * 16-byte column access occupying the channel data bus for 16 cycles
 * (so an uncompressed 64 B line needs 4 column accesses and a
 * 1-segment compressed line needs 1 — the compression x scheduling
 * interaction).
 *
 * Channel-count calibration: the model serializes whole accesses per
 * channel (see dram_backend.h), so a channel streams row hits at
 * ~0.5 B/cycle — about 40% of a real pipelined DDR2-800 channel,
 * which hides tCAS under the previous burst. Four default channels
 * restore an aggregate ~10 GB/s effective read bandwidth, matching a
 * real dual-channel DDR2 system's sustained rate, so the default
 * banked system sits above the paper's Figure 4 bandwidth demand for
 * the commercial workloads instead of saturating at base.
 */

#ifndef CMPSIM_DRAM_DRAM_PARAMS_H
#define CMPSIM_DRAM_DRAM_PARAMS_H

#include <string>

#include "src/common/types.h"

namespace cmpsim {

/** Which memory backend services requests behind the pin link. */
enum class DramBackendKind : unsigned
{
    Fixed = 0,  ///< flat MemoryParams::dram_latency (paper-validated)
    Banked = 1, ///< banked timing model with FR-FCFS scheduling
};

/** Scheduling discipline of the banked backend's read queue. */
enum class DramSched : unsigned
{
    FrFcfs = 0, ///< row hits first, then demand-over-prefetch, then age
    Fcfs = 1,   ///< strict arrival order (ablation baseline)
};

/** Knobs of the banked DRAM backend (inert while backend == Fixed). */
struct DramTimingParams
{
    DramBackendKind backend = DramBackendKind::Fixed;

    /** Geometry: independent channels, each ranks x banks (see the
     *  file comment for why 4 channels, not a literal 2). */
    unsigned channels = 4;
    unsigned ranks = 1;
    unsigned banks = 8;

    /** Row-buffer (page) size per bank, bytes. */
    unsigned row_bytes = 4096;

    // ---- DDR-style timings, in 5 GHz core cycles ----
    Cycle trcd = 60; ///< activate -> column command
    Cycle tcas = 60; ///< column command -> first data beat
    Cycle trp = 60;  ///< precharge duration
    Cycle tras = 160; ///< activate -> earliest precharge

    /** Bytes moved per column access and the data-bus cycles that
     *  access occupies; a line needs ceil(payload / burst_bytes)
     *  column accesses, which is where compression shortens bursts. */
    unsigned burst_bytes = 16;
    Cycle burst_cycles = 16;

    /** Controller pipeline overhead added to every read's completion
     *  (queue insertion, response path). */
    Cycle ctrl_latency = 40;

    /** Closed-page policy: auto-precharge after every access instead
     *  of leaving the row open for locality. */
    bool closed_page = false;

    DramSched sched = DramSched::FrFcfs;

    /** Per-channel refresh: every refresh_interval cycles the channel
     *  stalls refresh_cycles and all rows close (tREFI = 7.8 us,
     *  tRFC = 128 ns at 5 GHz). refresh_interval 0 disables. */
    Cycle refresh_interval = 39000;
    Cycle refresh_cycles = 640;

    /** Write-queue drain hysteresis: reads yield to writes once the
     *  queue reaches the high watermark, until it drains to the low. */
    unsigned write_high_watermark = 16;
    unsigned write_low_watermark = 4;

    unsigned banksPerChannel() const { return ranks * banks; }
    unsigned totalBanks() const { return channels * ranks * banks; }
    unsigned linesPerRow() const { return row_bytes / kLineBytes; }
};

/**
 * Parse a CMPSIM_DRAM-style spec into @p p. Grammar:
 *
 *     fixed
 *     banked
 *     banked:key=value[,key=value]...
 *
 * with integer keys channels, ranks, banks, row_bytes, trcd, tcas,
 * trp, tras, burst_bytes, burst_cycles, ctrl_latency,
 * refresh_interval, refresh_cycles, wq_high, wq_low, and enum keys
 * page=open|closed, sched=frfcfs|fcfs. Unknown keys, malformed
 * integers and options after "fixed" throw ConfigError (context
 * "env.CMPSIM_DRAM"). An empty spec leaves @p p untouched.
 */
void parseDramSpec(const std::string &spec, DramTimingParams &p);

/**
 * Reject impossible banked-DRAM geometry/timing with a knob-named
 * ConfigError ("config.dram.<knob>"): zero banks/ranks/channels, a
 * row buffer smaller than a line or not a power of two, a burst of 0
 * bytes or 0 cycles, zero tRCD/tCAS/tRP, tRAS < tRCD + tCAS,
 * inverted write watermarks, and refresh stalls at least as long as
 * the refresh interval. Called from SystemConfig::validate()
 * regardless of the selected backend (the knobs must always be
 * arm-able).
 */
void validateDramParams(const DramTimingParams &p);

} // namespace cmpsim

#endif // CMPSIM_DRAM_DRAM_PARAMS_H
