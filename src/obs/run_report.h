/**
 * @file
 * Structured JSON run reports (DESIGN.md §9): a machine-readable
 * record of one simulation run — config fingerprint, the CMPSIM_*
 * knobs it ran under, outcome status, headline metrics, every
 * registered counter, histogram summaries with quantiles,
 * wall-clock/heap telemetry, and the profiler's site totals — written
 * by `cmpsim_cli --report out.json`.
 *
 * The report is the artifact a sweep harness archives next to each
 * run: enough to audit *what* was simulated (fingerprint), *what came
 * out* (counters), and *what it cost* (wall seconds, max RSS, prof
 * sites) without re-parsing human-oriented stdout.
 *
 * Determinism note: the simulated payload (fingerprint, counters,
 * histograms) is deterministic per seed; the telemetry block
 * (wall_seconds, max_rss_kb, prof) is wall-clock by nature and is
 * kept in a separate "telemetry" object so tooling can hash the rest.
 */

#ifndef CMPSIM_OBS_RUN_REPORT_H
#define CMPSIM_OBS_RUN_REPORT_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/profiler.h"

namespace cmpsim {

/** One histogram's summary line-up in a report. */
struct HistogramReport
{
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    std::uint64_t underflow = 0;
};

/** One registry's counters and histogram summaries, in name order. */
struct StatCapture
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<HistogramReport> histograms;
};

/** Everything one run's report serializes. */
struct RunReport
{
    // Identity / provenance.
    std::string benchmark;
    std::uint64_t seed = 0;
    std::uint64_t config_fingerprint = 0; ///< fnv1a(pointSpecBytes)
    std::uint64_t warmup_per_core = 0;
    std::uint64_t measure_per_core = 0;
    /** The CMPSIM_* knobs set for the run (EnvKnobs::raw), by name. */
    std::map<std::string, std::string> knobs;

    // Outcome.
    std::string status = "ok"; ///< "ok" or the SimError kind name
    std::string error;         ///< what() when status != "ok"

    // Headline metrics (zero when the run failed before measuring).
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    double bandwidth_gbps = 0.0;
    double compression_ratio = 1.0;

    StatCapture stats; ///< CmpSystem::stats(), in full

    /** CPI-stack / miss-genealogy registry (CmpSystem::cpiStats()),
     *  captured only when the layer is armed (--cpi-stack /
     *  CMPSIM_CPISTACK); the "cpi_stack" object is omitted while it
     *  is empty, so unarmed reports are byte-identical to older ones. */
    StatCapture cpi_stack;

    // Host-side telemetry (not part of the deterministic payload).
    double wall_seconds = 0.0;
    std::uint64_t max_rss_kb = 0;
    std::vector<ProfSample> prof;
};

/** Peak resident set size of this process in KiB (0 if unknown). */
std::uint64_t currentMaxRssKb();

/** Every counter and histogram registered in @p reg. */
StatCapture captureStats(const StatRegistry &reg);

/** Serialize @p report as a pretty-printed JSON object. */
void writeRunReport(std::ostream &os, const RunReport &report);

} // namespace cmpsim

#endif // CMPSIM_OBS_RUN_REPORT_H
