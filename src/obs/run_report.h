/**
 * @file
 * Structured JSON run reports (DESIGN.md §9): a machine-readable
 * record of one simulation run — config fingerprint, the CMPSIM_*
 * knobs it ran under, outcome status, headline metrics, every
 * registered counter, histogram summaries with quantiles,
 * wall-clock/heap telemetry, and the profiler's site totals — written
 * by `cmpsim_cli --report out.json` and aggregated per-point by the
 * parallel runner's batch report (CMPSIM_REPORT).
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

    // Full stat capture.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<HistogramReport> histograms;

    /** CPI-stack / miss-genealogy counters (CmpSystem::cpiStats()),
     *  captured only when the layer is armed (--cpi-stack /
     *  CMPSIM_CPISTACK); the "cpi_stack" object is omitted otherwise
     *  so unarmed reports are byte-identical to older ones. */
    std::vector<std::pair<std::string, std::uint64_t>> cpi_stack;
    std::vector<HistogramReport> cpi_histograms;

    // Host-side telemetry (not part of the deterministic payload).
    double wall_seconds = 0.0;
    std::uint64_t max_rss_kb = 0;
    std::vector<ProfSample> prof;
};

/** Peak resident set size of this process in KiB (0 if unknown). */
std::uint64_t currentMaxRssKb();

/** Copy every registered counter and histogram into @p report. */
void captureStats(const StatRegistry &reg, RunReport &report);

/** Copy the CPI-stack registry (CmpSystem::cpiStats()) into the
 *  report's cpi_stack section. */
void captureCpiStats(const StatRegistry &reg, RunReport &report);

/** Serialize @p report as a pretty-printed JSON object. */
void writeRunReport(std::ostream &os, const RunReport &report);

} // namespace cmpsim

#endif // CMPSIM_OBS_RUN_REPORT_H
